(** Plan execution over in-memory tables.

    Executes both original plans and extended plans (with
    [Encrypt]/[Decrypt] nodes, which require a crypto context). Every
    operator runs on {!Table}'s column layout: projection selects
    columns without copying; selection ({!Eval.select}), joins,
    order-by and limit produce row indices and return index views
    ({!Table.gather}), whose cells are gathered once, by the first
    operator that reads the column or when the table leaves the
    executor. Operators take their internal arrays (hash tables, codes,
    buckets, match and selection vectors) from the domain's
    {!Scratch}. Joins bucket the right side by dense
    key codes on conjunctive equality pairs — including pairs of det or
    OPE ciphertexts — with a nested-loop fallback; a left row's matches
    come out in descending right-row order. Group-by numbers groups
    densely in first-appearance order, folds typed operands in one pass
    into per-group accumulators, and supports homomorphic [sum]/[avg]
    over Paillier ciphertexts and [min]/[max] over OPE ciphertexts.
    Boxed ([Values]) columns take the per-row paths.

    A plan runs on the calling domain. Encryption randomness is derived
    from (plan-node preorder position, row index) rather than a shared
    stream, so ciphertext bytes are a function of position alone. Every
    table that leaves the executor — the result, a table the memo keeps,
    a table the hook sees — is materialized: it holds no view and no
    scratch array. *)

open Relalg

exception Exec_error of string

type udf = Value.t list -> Value.t
(** Receives the values of the input attributes in attribute order.
    [Serve.Service]'s pool may run executions concurrently:
    implementations must be thread-safe (pure functions are). *)

type context = {
  tables : (string * Table.t) list;  (** base relations by name *)
  udfs : (string * udf) list;
  crypto : Enc_exec.ctx option;
}

val context :
  ?udfs:(string * udf) list ->
  ?crypto:Enc_exec.ctx ->
  (string * Table.t) list ->
  context

type subplan_memo = {
  lookup : pos:int -> Plan.t -> Table.t option;
  store : pos:int -> Plan.t -> (unit -> Table.t) -> unit;
}
(** Sub-plan result memoization (multi-query work sharing). Before
    executing a subtree at preorder position [pos], the executor asks
    [lookup]; a [Some table] answer stands in for the whole subtree.
    Every subtree computed locally is offered to [store] afterwards, as
    a function returning its materialized table ({!Table.materialize}):
    call it for the subtrees the memo keeps, on the executing domain,
    before [store] returns.
    Soundness is the caller's burden: the memo key must cover
    everything the subtree's bytes depend on — structure, preorder
    position when ciphertext is produced inside, key clusters,
    environment (see [Serve.Service]). Both callbacks run on the
    executing domain, but [Serve.Service]'s pool runs several executions
    at once: state shared between memos must be synchronized. *)

val run : ?memo:subplan_memo -> context -> Plan.t -> Table.t
(** Positions passed to [?memo] are per-occurrence preorder positions,
    threaded through the traversal itself — sound on hash-consed DAG
    plans ({!Planner.Dag}) where one physical node occupies several
    positions. Encryption randomness uses the same per-occurrence
    labels, so a DAG-interned plan produces ciphertext byte-identical
    to its tree-shaped original. *)

val run_with_hook :
  ?memo:subplan_memo ->
  context ->
  hook:(Plan.t -> Table.t -> unit) ->
  Plan.t ->
  Table.t
(** Like {!run}, invoking [hook] on every node's output, materialized,
    as soon as it exists, in the plan's post-order (left subtree, right subtree,
    node); the distributed runtime runs its release check this way.
    A raising hook stops the plan at that node. A [?memo] hit reports
    only the subtree root (its interior was not executed here), so
    memoization and hook consumers are not combined in practice — the
    serving layer runs hook-free. *)
