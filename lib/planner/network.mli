(** Network configuration (Sec. 7).

    The paper's testbed connects authorities and providers with 10 Gbps
    links, and the client with a 100 Mbps link. Bandwidth drives the
    performance estimate (transfer time), which the user can cap with a
    threshold; monetary network cost is bandwidth-independent (volume ×
    egress price, see {!Pricing}). *)

type t

val make : ?client_mbps:float -> unit -> t
(** A 10 Gbps backbone, and a client link of [client_mbps] (default
    100 Mbps). *)

val bandwidth_bps : t -> Authz.Subject.t -> Authz.Subject.t -> float
(** Bottleneck bandwidth between two subjects (client link applies as
    soon as a user is an endpoint). *)

val transfer_seconds : t -> Authz.Subject.t -> Authz.Subject.t -> float -> float
(** [transfer_seconds t a b bytes]. Zero when [a = b]. *)

val fingerprint : t -> string
(** Canonical collision-free serialization of the two bandwidths (see
    {!Fingerprint}). Part of the plan-cache key. *)
