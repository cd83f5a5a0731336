(** Distributed execution simulation with a supervised, fault-tolerant
    step machine.

    Drives a planned query the way the paper's deployment would: the user
    seals one request per fragment (Fig. 8) and sends it to the
    fragment's executor together with exactly the cluster keys that
    executor holds (Def. 6.1); executors evaluate their fragment, pulling
    operand relations from their callees; every data authority checks
    authorizations before releasing data across a subject boundary
    (Sec. 6, {!check_node}), and each executor verifies it received the
    keys its encryption/decryption operations need. The whole exchange
    is traced for inspection and testing.

    Every network interaction (request dispatch, cross-boundary data
    transfer) runs under a retry policy against a {!Faults} plan:
    transient losses, corrupted payloads and timeouts are retried with
    exponential backoff and deterministic jitter; a subject that
    exhausts its retries is declared dead and, when a [replan] callback
    is provided, the query fails over to a fresh
    {!Planner.Optimizer.plan} that excludes every dead subject — gated
    by the same pre-dispatch static verification as the original plan.
    Authorization failures (release checks, key checks, pre-dispatch
    verification) are {e never} retried: they raise
    {!Distributed_violation} immediately. When no authorized
    alternative exists the run ends in a structured {!Degraded}
    status carrying the partial trace, not an exception. *)

type event =
  | Request_sent of { name : string; to_ : Authz.Subject.t; keys : string list }
  | Request_opened of { name : string; by : Authz.Subject.t }
  | Data_transfer of {
      from_ : Authz.Subject.t;
      to_ : Authz.Subject.t;
      node_id : int;
      rows : int;
      bytes : int;
    }
  | Release_check of {
      by : Authz.Subject.t;
      for_ : Authz.Subject.t;
      node_id : int;
    }
      (** [by] may release node [node_id]'s table to [for_]; emitted
          before each cross-boundary transfer. A refused check raises
          {!Distributed_violation}, so a trace holds only passed checks. *)
  | Key_check of { by : Authz.Subject.t; cluster : string }
      (** [by] holds cluster [cluster]'s key; a missing key raises, as a
          refused release does *)
  | Fault_injected of {
      what : string;  (** operation label, e.g. ["dispatch req_X"] *)
      subject : string;  (** blamed subject *)
      kind : string;  (** ["transient"], ["corrupt"], ["envelope"] *)
      step : int;  (** fault-plan step counter at injection *)
    }
  | Retry of { what : string; attempt : int; backoff_ms : int }
  | Timeout of { what : string; subject : string; waited_ms : int }
  | Failover_replanned of {
      dead : Authz.Subject.t;  (** subject just declared dead *)
      excluded : Authz.Subject.t list;  (** all dead subjects so far *)
    }
  | Degraded_abort of { reason : string }

exception Distributed_violation of string

type retry_policy = {
  max_retries : int;  (** retries after the first attempt *)
  base_backoff_ms : int;
      (** backoff before retry [n] is [base * 2^(n-1) + jitter],
          jitter uniform in [\[0, base)] from the fault plan's PRNG *)
  timeout_ms : int;  (** per-attempt simulated-clock timeout *)
}

val default_retry : retry_policy
(** 3 retries, 50 ms base backoff, 1000 ms timeout. *)

type degradation = { reason : string; dead : Authz.Subject.t list }

type status =
  | Completed of Engine.Table.t
  | Degraded of degradation
      (** The fault plan defeated every authorized alternative; the
          partial trace survives in the outcome. Never produced by an
          authorization failure — those raise
          {!Distributed_violation}. *)

type outcome = {
  status : status;
  trace : event list;
  clock_ms : int;  (** simulated time consumed, including backoffs *)
  replans : int;  (** failover re-plannings performed *)
}

val result : outcome -> Engine.Table.t
(** The completed result table; raises {!Distributed_violation} with
    the degradation reason on a [Degraded] outcome. *)

type replanner =
  exclude:Authz.Subject.Set.t ->
  (Authz.Extend.t * Authz.Plan_keys.cluster list) option
(** Produce a fresh extended plan avoiding every subject in [exclude],
    or [None] when no authorized alternative exists. *)

val optimizer_replanner :
  policy:Authz.Authorization.t ->
  subjects:Authz.Subject.t list ->
  ?config:Authz.Opreq.config ->
  ?deliver_to:Authz.Subject.t ->
  Relalg.Plan.t ->
  replanner
(** The standard replanner: re-run {!Planner.Optimizer.plan} over the
    original plan with the dead subjects removed from [subjects];
    [No_candidate] / [User_not_authorized] map to [None]. *)

val check_node :
  policy:Authz.Authorization.t ->
  Authz.Extend.t ->
  Relalg.Plan.t ->
  Engine.Table.t ->
  (Authz.Subject.t * Authz.Subject.t) option
(** The runtime release check, run on each node's table as soon as it
    exists. [check_node ~policy extended] builds the extension's parent
    map once; its application to a node and its table
    - at an edge whose endpoints have different executors, checks
      Def. 4.1 for the receiver's view against the node's recorded
      profile, and returns [Some (sender, receiver)];
    - checks that the table's columns match the profile's visible
      plaintext/encrypted split (sealed columns are not decrypted or
      materialized);
    - returns [None] for an edge inside one subject, or at the root.

    Fails closed: a refused release (naming the violated condition), a
    column that contradicts the profile, or a node without an executor
    or a recorded profile raises {!Distributed_violation} naming the
    node. *)

val execute :
  policy:Authz.Authorization.t ->
  pki:Pki.t ->
  keyring:Mpq_crypto.Keyring.t ->
  user:Authz.Subject.t ->
  tables:(string * Engine.Table.t) list ->
  ?udfs:(string * Engine.Exec.udf) list ->
  ?config:Authz.Opreq.config ->
  ?faults:Faults.t ->
  ?retry:retry_policy ->
  ?replan:replanner ->
  extended:Authz.Extend.t ->
  clusters:Authz.Plan_keys.cluster list ->
  unit ->
  outcome
(** {!check_node}, transfers and fault injection run in post-order as
    each node's table is produced (see {!Engine.Exec.run_with_hook}).

    Raises {!Distributed_violation} when a release check fails, an
    executor misses a key its fragment needs, or the pre-dispatch
    verification gate reports an error — immediately, without retry:
    an authorization denial must never be retried into success.

    The static verifier ([Verify.Verifier]) is run over the plan,
    clusters and requests before any request is sealed — and again over
    every failover re-planned extension; an [Error]-severity finding
    raises {!Distributed_violation} with the rendered diagnostics. There
    is no switch to skip it. [config]
    (default [Authz.Opreq.default]) is the operation-requirement
    configuration the plan was built under.

    [faults] (default {!Faults.none}) injects failures; [retry]
    (default {!default_retry}) bounds recovery; [replan] (default:
    none — a dead subject degrades the run) enables authorized
    failover. *)

val pp_event : Format.formatter -> event -> unit
