(** Query plans.

    A query plan is a tree whose leaves are base relations and whose
    internal nodes are relational operations (Sec. 1). Plans may
    additionally contain the on-the-fly [Encrypt]/[Decrypt] operations
    that extended plans inject (Sec. 5). Every node carries a unique
    integer id used by assignment functions and cost tables. *)

type node =
  | Base of Schema.t
  | Project of Attr.Set.t * t
  | Select of Predicate.t * t
  | Product of t * t
  | Join of Predicate.t * t * t
  | Group_by of Attr.Set.t * Aggregate.t list * t
      (** [Group_by (keys, aggs, child)]; [aggs = []] models duplicate
          elimination over [keys]. *)
  | Udf of string * Attr.Set.t * Attr.t * t
      (** [Udf (name, inputs, output, child)]: procedural computation
          µ_{A,a} reading [inputs] and producing [output], which must be
          named after one of the inputs (paper convention). *)
  | Order_by of (Attr.t * sort_dir) list * t
      (** Sorting — outside the paper's algebra but present in the
          PostgreSQL plans it consumes; profiled like a grouping (the
          ordering leaks value relations on the sort keys). *)
  | Limit of int * t  (** top-k cut; no informational content of its own *)
  | Encrypt of Attr.Set.t * t
  | Decrypt of Attr.Set.t * t

and sort_dir = Asc | Desc

and t = private { id : int; node : node; schema : Attr.Set.t }
(** [schema] is computed once, when the node is built, from its
    children's: see {!schema}. *)

(** {1 Construction}

    Smart constructors allocate fresh node ids and check arity/schema
    constraints, raising [Invalid_argument] on violations. *)

val base : Schema.t -> t
val project : Attr.Set.t -> t -> t
val select : Predicate.t -> t -> t
val product : t -> t -> t
val join : Predicate.t -> t -> t -> t
val group_by : Attr.Set.t -> Aggregate.t list -> t -> t
val udf : string -> Attr.Set.t -> Attr.t -> t -> t
val order_by : (Attr.t * sort_dir) list -> t -> t
val limit : int -> t -> t
val encrypt : Attr.Set.t -> t -> t
val decrypt : Attr.Set.t -> t -> t

(** {1 Observation} *)

val id : t -> int
val node : t -> node
val children : t -> t list

val schema : t -> Attr.Set.t
(** Visible attributes of the relation the node produces; stored in the
    node, so reading it walks nothing. *)

val is_leaf : t -> bool
val size : t -> int
(** Number of nodes. *)

val height : t -> int

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all nodes. *)

val iter : (t -> unit) -> t -> unit
val nodes : t -> t list
(** All nodes in post-order (children before parents). *)

val find : t -> int -> t option
(** Find a node by id. *)

val descendants : t -> t -> bool
(** [descendants t n] is [true] when [n] occurs in [t]'s subtree
    (including [t] itself). *)

val base_relations : t -> Schema.t list
val operator_name : t -> string

val strip_crypto : t -> t
(** Remove all [Encrypt]/[Decrypt] nodes, recovering the original plan of
    an extended plan (Def. 5.1). Fresh ids are allocated. *)

val equal_shape : t -> t -> bool
(** Structural equality ignoring node ids. *)

val with_children : t -> t list -> t
(** Rebuild the node over replacement children (fresh id, invariants
    re-checked). Raises [Invalid_argument] on arity mismatch. Used by
    the hash-consing DAG store to splice shared subtrees in place. *)

val preorder_positions : t -> (int, int) Hashtbl.t
(** Preorder position (root = 0) of every node, keyed by allocation id.
    Positions are a function of plan {e structure} only, so two builds
    of the same query agree — the canonical node numbering used by
    execution randomness and verifier diagnostics.

    On a hash-consed DAG (where one node is reachable from several
    parents) an id-keyed table records only the {e first} (leftmost)
    occurrence's position, while the numbering itself still advances
    exactly as in the equivalent tree. Consumers that must label every
    occurrence — the executor's per-position ciphertext randomness —
    thread positions through their own traversal with
    {!child_positions} instead of looking ids up here. *)

val child_positions : t -> int -> (t * int) list
(** [child_positions n pos] pairs each child of [n] with its preorder
    position, given that this {e occurrence} of [n] sits at [pos]:
    child [i] is at [pos + 1 + Σ_{j<i} size child_j]. Pure occurrence
    arithmetic, sound on shared-node DAGs. *)
