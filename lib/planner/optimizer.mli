(** End-to-end authorization-aware planning (Sec. 6's five steps).

    Given a query plan, a policy, the participating subjects, prices and
    network: resolve scheme conflicts, compute candidates (step 1),
    choose a minimum-cost assignment (step 2, DP), inject minimal
    encryption/decryption (step 3), derive the plan keys (step 4), and
    build the dispatch requests (step 5). *)

open Relalg

type result = {
  config : Authz.Opreq.config;  (** after conflict resolution *)
  candidates : Authz.Candidates.t;
  assignment : Authz.Subject.t Authz.Imap.t;
  extended : Authz.Extend.t;
  clusters : Authz.Plan_keys.cluster list;
  requests : Authz.Dispatch.request list;
  cost : Cost.breakdown;
  scheme_of : Attr.t -> Mpq_crypto.Scheme.t;
}

exception No_candidate of string
(** Raised when some operation admits no authorized executor — the query
    cannot run under the policy. *)

exception User_not_authorized of string
(** Raised when [deliver_to] is given but that subject is not authorized
    for some base relation the query reads (Sec. 6: "a user requesting
    query execution is required to be authorized to access all data that
    are input to the query"). *)

exception Verification_failed of Verify.Diag.t list
(** Raised by {!plan}'s self-check when the independent static verifier
    ([Verify.Verifier]) finds an [Error]-severity diagnostic in the
    plan it produced. Carries every diagnostic of that plan, warnings
    included. Indicates a planner bug, never a policy problem. *)

val self_check_message : Verify.Diag.t list -> string
(** ["planner self-check failed:\n"] followed by the rendered
    [Error]-severity diagnostics: the text a {!Verification_failed}
    rejection reports. *)

val environment_fingerprint :
  ?tenant:string ->
  policy:Authz.Authorization.t ->
  subjects:Authz.Subject.t list ->
  ?config:Authz.Opreq.config ->
  ?pricing:Pricing.t ->
  ?network:Network.t ->
  ?deliver_to:Authz.Subject.t ->
  ?max_latency:float ->
  unit ->
  string
(** Fingerprint of every planning input except the query itself. The
    serving layer computes it once per policy/config epoch: any change
    to the policy, the participating subjects, the operation
    requirements, prices, bandwidths, the recipient or the latency
    bound yields a different string, which rotates every cache key
    built from it (explicit invalidation — stale entries become
    unreachable). Defaults mirror {!plan}'s.

    [tenant] (default ["default"]) is folded in as its own field: the
    serving layer's multi-tenant registry names each tenant's planning
    environment, so structurally identical queries planned for
    different tenants — even under byte-identical policies — occupy
    disjoint key spaces in every cache keyed by this fingerprint. *)

val cache_key_of : env:string -> string -> string
(** [cache_key_of ~env qfp] is the plan-cache key for planning a query
    whose structural fingerprint is [qfp] ({!Fingerprint.of_plan},
    node-id independent — equal for any two parses of the same query
    text) under the environment fingerprinted as [env], each field
    length-prefixed. The serve layer also uses it to rekey surviving
    cache entries under a new environment fingerprint without
    re-fingerprinting the query. *)

val plan :
  policy:Authz.Authorization.t ->
  subjects:Authz.Subject.t list ->
  ?config:Authz.Opreq.config ->
  ?pricing:Pricing.t ->
  ?network:Network.t ->
  ?base:Estimate.base_stats ->
  ?deliver_to:Authz.Subject.t ->
  ?max_latency:float ->
  Plan.t ->
  result
(** [max_latency] (seconds) is the paper's performance threshold: among
    the explored assignments, the cheapest whose critical-path latency
    stays under the bound wins; when none qualifies, the lowest-latency
    one is returned (cost is secondary at that point).

    The local search re-costs each assignment once: the two polish
    sweeps (and the DP round seeds) revisit many identical assignments,
    so outcomes are memoized by assignment, keyed by the index of each
    assignable node's assignee among its candidates. Evaluating an
    assignment is incremental: the extension, its demands and its cost
    are kept per subtree for the whole call, and a move rebuilds only
    what it changes (see {!Authz.Extend.extender}).

    Before returning, [plan] re-verifies its own output with the
    static verifier and raises {!Verification_failed} on any
    [Error]-severity finding, so every result it returns is
    verified. *)

val report : result -> string
(** Human-readable planning report: annotated plan, keys, requests,
    cost. *)
