(** Key management.

    Def. 6.1 derives one key per cluster of attributes that must share a
    key (attributes appearing together in a root equivalence set). A
    keyring holds a master secret from which each cluster's 16-byte
    secret is derived by PRF; whoever receives a cluster secret can build
    the scheme keys (det / rnd / ope) for that cluster. The Paillier pair
    is per-keyring: the public key is freely shareable, the secret key is
    handed only to subjects that must decrypt aggregates. *)

type t

val create : ?seed:int64 -> unit -> t
(** Deterministic when [seed] is supplied (tests, reproducibility). *)

val cluster_secret : t -> string -> string
(** [cluster_secret t key_id] is the 16-byte secret for the cluster. *)

val det_key : t -> string -> Det.key
val ope_key : t -> string -> Ope.key

val det_key_of_secret : string -> Det.key
val rnd_key_of_secret : string -> Rnd.key
val ope_key_of_secret : string -> Ope.key

val paillier : t -> Paillier.public * Paillier.secret
(** Generated lazily and cached. *)

val rng : t -> Prng.t
(** The keyring's nonce generator (for randomized encryption). *)

val derived_rng : t -> string -> Prng.t
(** [derived_rng t label] is a fresh generator seeded by PRF from the
    keyring's master secret and [label]. Unlike {!rng} (a single shared
    stream advanced by every draw), the derived generator depends only
    on [(t, label)], so draws keyed by position — e.g. plan-node id and
    row index — are reproducible under any execution order. *)
