(** Long-running query service with a verified plan cache.

    The paper's pipeline (profiles → candidates → minimal extension →
    keys → dispatch) is deterministic in its inputs, so a stream of
    queries under a slowly-changing policy re-derives the same plans
    over and over. The service amortizes that work: optimized plans
    are cached {e after} they have passed the independent static
    verifier once, keyed by

    [cache key = query fingerprint × environment fingerprint]

    where the environment covers the policy, the participating
    subjects, the operation-requirement config, prices, bandwidths,
    the recipient and the latency bound
    ({!Planner.Optimizer.environment_fingerprint}). A cache hit skips
    parsing-independent planning {e and} re-verification; any
    [set_*] mutation rotates the environment fingerprint, so every
    key formed under the old environment becomes unreachable — stale
    plans are never served, and the bounded LRU ages them out.

    {2 Incremental policy invalidation}

    {!set_policy} does better than wholesale rotation: it diffs the
    old and new policies as {e fact sets} ({!Analysis.Delta}) and
    consults each cached entry's authorization dependency set
    ({!Analysis.Deps}) — the exact facts the verifier's certification
    of that plan consumed. Entries whose
    dependency set is disjoint from the delta provably keep their
    verdict and are rekeyed under the new environment fingerprint
    (recency intact); entries overlapping only on {e added} facts are
    kept after one incremental verifier pass (grants are monotone for
    Def. 4.1, so re-verification — not replanning — suffices);
    entries that lost a fact they depended on are dropped. Planner
    denials survive revoke-only deltas and drop on any grant;
    verifier denials drop on any view change. Schema changes and
    subject-population swaps fall back to full rotation.

    {2 Concurrency and determinism}

    [submit_batch] serves a batch on the {!Par} pool with a
    three-phase protocol: (1) probe — compute keys and classify
    misses without touching the cache; (2) plan — optimize + verify
    each {e distinct} missing key in parallel; (3) replay — perform
    the real cache lookups and insertions sequentially, in request
    order, on the coordinating domain, then execute result plans in
    parallel. Both caches are single {!Lru}s, mutated only on the
    coordinating domain (the plan cache in phase 3, the sub-plan cache
    in the replay described below), so the cache's evolution
    (hit/miss sequence, insertion order, evictions) is identical at
    any job count, and results are byte-identical to serial execution
    (ciphertext bytes included — the {!Engine.Exec} position-derived
    randomness guarantee).

    {2 Multi-query optimization: plan DAGs and sub-plan sharing}

    With [~sharing:true] (the default) the service hash-conses every
    cached executable plan into a shared-node DAG ({!Planner.Dag}):
    structurally identical authorized subplans across the cached
    queries become one physical node. Two kinds of work are then
    shared, all without changing a single response byte:

    - {b batch grouping}: requests in one round that resolve to the
      same cache key execute once; the other responses alias the
      immutable result table;
    - {b sub-plan result memoization}: each execution consults a
      second, first-class LRU tier keyed by (subtree structure ×
      preorder position when ciphertext is produced inside × key
      clusters/schemes × executor assignment × environment
      fingerprint). Equal key implies equal bytes by construction, so
      a shared subtree — and the whole plan, via its root — executes
      once and is replayed from the cache afterwards. Sub-plan hits
      survive full-query misses: a new query shape still reuses the
      shared scans/joins it has in common with resident plans.
      Crypto-free subtrees share across positions; anything producing
      ciphertext is position-bound (randomness derives from preorder
      positions). Structurally equal subtrees under {e different
      environments} (policy epoch, subject population, recipient,
      config) never share — the environment fingerprint in the key is
      the leakage gate for the paper's series-of-queries rule.

    During the parallel exec phase the sub-plan cache is a frozen
    snapshot (pure {!Lru.peek} lookups); hits and stores are buffered
    and replayed by the coordinator in request order, position order
    within a plan — so the subcache evolves identically at any job
    count. Incremental policy migration treats sub-plan entries like
    plan entries: an entry whose per-subtree dependency facts
    ({!Analysis.Deps.of_subplan}) consumed a revoked grant is dropped
    (once, for every consumer); any other delta rekeys it under the
    new environment fingerprint. *)

open Relalg

type t

val create :
  ?cache_capacity:int ->
  ?max_batch:int ->
  ?pool:Par.pool ->
  ?config:Authz.Opreq.config ->
  ?pricing:Planner.Pricing.t ->
  ?network:Planner.Network.t ->
  ?base:Planner.Estimate.base_stats ->
  ?deliver_to:Authz.Subject.t ->
  ?max_latency:float ->
  ?udfs:(string * Engine.Exec.udf) list ->
  ?seed:int64 ->
  ?sharing:bool ->
  ?now:(unit -> float) ->
  policy:Authz.Authorization.t ->
  subjects:Authz.Subject.t list ->
  tables:(string * Engine.Table.t) list ->
  unit ->
  t
(** [cache_capacity] bounds the plan cache (default 128 entries,
    LRU). [max_batch] is the admission bound: {!submit_batch} serves
    at most this many queries per round, queueing the rest (default
    32 — backpressure, so one huge batch cannot monopolize the pool).
    [deliver_to] defaults to the first [User] among [subjects], when
    any. [seed] fixes the keyring so ciphertext bytes are reproducible
    across runs (default [42L]); the service keeps that keyring's
    derived cluster keys and Paillier pair in one
    {!Engine.Enc_exec.store} for its lifetime. [base] supplies cardinality
    statistics to the optimizer (default: none). [now] is the clock
    request deadlines are checked against (default
    [Unix.gettimeofday]; injectable so tests can force the
    between-plan-and-exec expiry deterministically). [sharing]
    (default [true]) enables the multi-query optimizations above;
    [false] is the isolated baseline the differential tests compare
    against — responses are byte-identical either way. The sub-plan
    result tier is an LRU of 256 entries. The service starts with one
    registered tenant, {!Tenancy.default_id}, built from
    [policy]/[subjects] and the optional environment arguments; more
    are added with {!add_tenant}. *)

(** {2 Tenants}

    Every request is served under a named tenant (default
    {!Tenancy.default_id}): its policy, subjects, config, prices,
    network, recipient and latency bound. The tenant id is a field of
    the environment fingerprint, so tenants occupy disjoint key spaces
    in the plan and sub-plan caches — isolation is a property of key
    construction, not of locks, and [cross_tenant_hits] in {!stats}
    counts the (structurally impossible) violations the fail-closed
    runtime checks would refuse. *)

val add_tenant :
  t ->
  id:string ->
  ?policy:Authz.Authorization.t ->
  ?subjects:Authz.Subject.t list ->
  ?config:Authz.Opreq.config ->
  ?pricing:Planner.Pricing.t ->
  ?network:Planner.Network.t ->
  ?deliver_to:Authz.Subject.t ->
  ?max_latency:float ->
  unit ->
  unit
(** Register a new tenant. Unsupplied components are copied from the
    default tenant's current values, with one exception: when
    [subjects] is supplied and [deliver_to] is not, the recipient is
    the first [User] among the tenant's own subjects (as in {!create}),
    never the default tenant's. Raises [Invalid_argument] when
    [id] is already registered. *)

val tenant_ids : t -> string list
(** Registered tenant ids, sorted. *)

val tenant_stats : t -> (string * Tenancy.stats) list
(** Per-tenant serving counters, in sorted id order. *)

(** {2 Environment mutation — explicit invalidation} *)

val set_policy :
  ?subjects:Authz.Subject.t list ->
  ?tenant:string ->
  t ->
  Authz.Authorization.t ->
  unit
(** Swap the named tenant's policy (default tenant when unnamed, and
    optionally its subject population). Always rotates that tenant's
    environment fingerprint; when [subjects] is not supplied the
    tenant's surviving entries are then migrated to the new
    fingerprint per the dependency protocol above, so its unaffected
    plans keep hitting. Entries of {e other} tenants are untouched in
    every respect: their fingerprints did not rotate, their keys stay
    resident, their recency is preserved (asserted by the per-tenant
    invalidation test). Raises [Invalid_argument] on an unknown
    tenant. *)

val set_config : ?tenant:string -> t -> Authz.Opreq.config -> unit
val set_pricing : ?tenant:string -> t -> Planner.Pricing.t -> unit
val set_network : ?tenant:string -> t -> Planner.Network.t -> unit

val invalidate : t -> unit
(** Drop every cache entry (statistics survive), and replace the key
    store with an empty one: derived keys and the Paillier pair go, so
    the next executions derive them again. The [set_*] calls above make
    this unnecessary for correctness (keys do not depend on the policy,
    so they leave the store alone); it exists for explicit memory
    release. *)

val environment : ?tenant:string -> t -> string
(** The named tenant's current environment fingerprint (tests assert
    rotation and cross-tenant distinctness). *)

val subjects : ?tenant:string -> t -> Authz.Subject.t list
(** The named tenant's current subject population. *)

(** {2 Serving} *)

type status = Hit | Miss

type outcome =
  | Table of Engine.Table.t  (** executed result *)
  | Rejected of string
      (** the authorization model rejects the query under the current
          policy (no authorized executor, the recipient lacks a
          required input authorization, or no produced plan passes the
          static verifier — the service fails closed) — a policy
          verdict, not an error, and itself cacheable. Also the answer
          when the engine fails executing a planned query
          ([Engine.Exec.Exec_error] or [Engine.Enc_exec.Crypto_error],
          e.g. an aggregate over a non-numeric attribute): only that
          query's requests are rejected, the rest of the batch is
          served, and the plan stays cached *)
  | Expired of string
      (** the request's deadline passed before the service would have
          done the work: either at admission (before the cache is even
          probed — a refused request leaves no trace in the cache) or
          at the checkpoint between the plan and exec phases (the
          planned entry is kept for future hits, but the overdue
          execution is refused). Never cached: the same query
          resubmitted with a live deadline is served normally. *)

type response = {
  outcome : outcome;
  status : status;
  key : string;  (** the cache key the request resolved to ([""] when
                     refused at admission) *)
  tenant : string;
      (** the tenant the request was served under (echoed verbatim for
          an unknown-tenant rejection) *)
  planned : Planner.Optimizer.result option;
      (** [None] on a planning rejection or admission expiry *)
  plan_ms : float;
      (** fingerprint + cache lookup + (on miss) planning and
          verification — the latency the cache exists to cut *)
  exec_ms : float;
}

type request = { query : Plan.t; deadline : float option; tenant : string }
(** A query plus an optional absolute deadline (seconds, on the
    service's [now] clock — [Unix.gettimeofday] by default) and the
    tenant to serve it under. A request naming an unregistered tenant
    is refused ([Rejected]) before the cache is probed. *)

val request : ?deadline:float -> ?tenant:string -> Plan.t -> request

val parse : ?tenant:string -> t -> string -> Plan.t
(** SQL → plan against the named tenant's policy schemas, classically
    optimized (normalization + join reordering) like the CLI front
    end. Raises the [Mpq_sql] parse exceptions on malformed input and
    [Invalid_argument] on an unknown tenant. *)

val submit : ?tenant:string -> t -> Plan.t -> response
(** Serve one query (a batch of one). *)

val submit_sql : ?tenant:string -> t -> string -> response

val submit_batch : t -> Plan.t list -> response list
(** Serve a batch concurrently (see the protocol above). Responses
    are in request order, and both the responses and the final cache
    state are identical to submitting the queries one by one. Batches
    larger than [max_batch] are served in admission-bounded rounds. *)

val submit_request : t -> request -> response

val submit_batch_requests : t -> request list -> response list
(** {!submit_batch} with per-request deadlines. A deadline is checked
    twice: at admission, before the round's cache probe (an expired
    request is refused without touching the cache, fingerprinting, or
    planning), and again between the plan and exec phases (so a
    request that spent its budget being planned is not also executed).
    Requests without deadlines behave exactly as {!submit_batch} —
    in particular the deterministic-replay guarantees are unchanged. *)

(** {2 Introspection} *)

type stats = {
  queries : int;
  rejections : int;
  expired : int;  (** requests refused for a blown deadline *)
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invalidated : int;
      (** entries dropped by incremental policy migration *)
  reverified : int;
      (** entries re-certified by an incremental verifier pass *)
  retained : int;  (** entries that survived a policy migration *)
  entries : int;
  capacity : int;
  subplan_hits : int;
      (** subtree executions answered from the sub-plan result cache *)
  subplan_stores : int;  (** distinct sub-plan results inserted *)
  subplan_invalidated : int;
      (** sub-plan entries dropped by incremental policy migration *)
  subplan_entries : int;  (** resident sub-plan results *)
  shared_execs : int;
      (** responses aliased onto a same-key execution in their round *)
  tenants : int;  (** registered tenants *)
  cross_tenant_hits : int;
      (** cache hits refused because the entry belonged to another
          tenant — structurally impossible while keys embed the tenant
          id, so anything but 0 means key construction is broken (the
          bench and CI assert 0) *)
  plan_ms : float;  (** cumulative, across all queries *)
  exec_ms : float;
}

val stats : t -> stats

val cache_keys : t -> string list
(** Most recently used first ({!Lru.keys}) — the deterministic final
    state the differential tests compare. *)

val subcache_keys : t -> string list
(** Sub-plan result cache keys, most recently used first — compared
    across job counts by the sharing differential tests. *)

val dag_stats : t -> Planner.Dag.stats
(** Node/occurrence/sharing counts of the hash-consed plan store. *)

val render_stats : stats -> string
(** One line: queries, hits/misses/rate, evictions, latencies. *)
