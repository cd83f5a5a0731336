(** Tenant registry: named planning environments sharing one service.

    A tenant is its policy, subject population and recipient, the
    service's prices, and an identity. These are the planner inputs the
    environment fingerprint varies over; the rest (the default
    operation-requirement config and bandwidths, no latency bound) are
    the same for every tenant.
    The identity is load-bearing: it is folded into the environment
    fingerprint as its own field
    ({!Planner.Optimizer.environment_fingerprint}'s [?tenant]), so two
    tenants occupy disjoint key spaces in every cache keyed by the
    fingerprint {e even when their policies are byte-identical}.
    Isolation between tenants is therefore a key-space property, not a
    lock or partition property: there is no per-tenant cache to keep
    separate, only keys that cannot collide — the same construction
    PR 9 used to keep equal subtrees under different policies from
    sharing sub-plan results.

    Each tenant also carries an epoch (bumped on every environment
    rotation) and its own serving counters, so a multi-tenant service
    can report per-tenant traffic and invalidation without threading
    tenant state through the cache itself. *)

type t = {
  id : string;
  mutable policy : Authz.Authorization.t;
  mutable subjects : Authz.Subject.t list;
  pricing : Planner.Pricing.t;
  deliver_to : Authz.Subject.t option;
  mutable env : string;  (** environment fingerprint, cached *)
  mutable epoch : int;  (** rotations since creation *)
  (* per-tenant serving counters, maintained by the service *)
  mutable queries : int;
  mutable hits : int;
  mutable misses : int;
  mutable rejections : int;
  mutable expired : int;
  mutable invalidated : int;
}

val default_id : string
(** ["default"] — the tenant every request and every policy change
    targets when none is named; single-tenant deployments
    never see another id. *)

val make :
  id:string ->
  ?pricing:Planner.Pricing.t ->
  ?deliver_to:Authz.Subject.t ->
  policy:Authz.Authorization.t ->
  subjects:Authz.Subject.t list ->
  unit ->
  t
(** [pricing] defaults to {!Planner.Pricing.make}[ ()]; [deliver_to]
    to the first [User] among [subjects], when any. The
    environment fingerprint is computed eagerly; epoch starts at 0. *)

val compute_env : t -> string
(** The environment fingerprint of the tenant's current state,
    including the [tenant:<id>] component. *)

val rotate : t -> unit
(** Recompute [env] and bump [epoch] — called after the tenant's
    policy or subjects change in place. *)

(** {2 Registry} *)

type registry

val registry : unit -> registry

val add : registry -> t -> unit
(** Raises [Invalid_argument] when a tenant with the same id is
    already registered — tenant ids name key spaces, so silently
    replacing one would strand cache entries under an id that now
    means something else. *)

val find : registry -> string -> t option

val ids : registry -> string list
(** Sorted. *)

val count : registry -> int
val iter : (t -> unit) -> registry -> unit

(** {2 Per-tenant stats} *)

type stats = {
  queries : int;
  hits : int;
  misses : int;
  rejections : int;
  expired : int;
  invalidated : int;
  epoch : int;
}

val stats : t -> stats
