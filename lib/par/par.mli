(** Fixed-size domain pool: [Serve.Service] plans and executes the
    distinct queries of a batch on it, and the planner bench runs one
    configuration per task.

    A pool spawns its worker domains once and reuses them for every
    batch, so a task costs a queue push, not a domain spawn. Scheduling
    is help-first: the submitting domain drains the shared queue while
    it waits for its batch, which makes nested submissions
    deadlock-free — whoever waits, works.

    Worker exceptions are captured with their backtraces and re-raised
    in the submitter at join time (first failing task in batch order).

    Observability: while {!Obs.enabled}, every task runs inside a
    private {!Obs.buffer} wrapped in a [par.d<k>] span naming the
    domain slot that executed it; buffers are merged into the
    submitter's collector state after the join, in task order, so
    counter totals are deterministic and the span tree shows which
    domain ran what. *)

type pool

val create : ?name:string -> int -> pool
(** [create jobs] builds a pool of [jobs] domains: [jobs - 1] spawned
    workers plus the submitting domain, which participates while
    waiting. [jobs <= 1] spawns nothing (every batch runs inline).
    [name] labels the pool in observability counters. Raises
    [Invalid_argument] when the runtime cannot start that many domains;
    the workers already spawned are joined first. *)

val size : pool -> int
(** The [jobs] the pool was created with (total domains, submitter
    included). *)

val shutdown : pool -> unit
(** Join the worker domains. Idempotent. Outstanding batches finish
    first (shutdown only closes the queue for new work). *)

val with_pool : ?name:string -> int -> (pool option -> 'a) -> 'a
(** [with_pool jobs f] passes [None] when [jobs <= 1], otherwise a
    fresh pool, and guarantees shutdown when [f] returns or raises. *)

val run_all : pool -> (unit -> 'a) list -> 'a list
(** Execute the thunks across the pool and return their results in
    input order. Re-raises the first (by input order) captured
    exception after the whole batch has settled. *)
