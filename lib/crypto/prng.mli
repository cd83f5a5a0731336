(** Deterministic pseudo-random number generation (SplitMix64).

    Used for key generation, randomized-encryption nonces and the TPC-H
    data generator. Deterministic seeding keeps every experiment in the
    repository reproducible. Not a CSPRNG; see DESIGN.md on the security
    posture of the crypto substrate. *)

type t

val create : int64 -> t
(** [create seed] builds an independent generator. *)

val copy : t -> t

val next64 : t -> int64
(** Next 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]; [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [[0, bound)]. *)

val bool : t -> bool

val bytes : t -> int -> string
(** [bytes t n] is an [n]-byte random string. *)

val split : t -> t
(** Derive an independent child generator (splittable PRNG). *)

val derive : t -> int -> t
(** [derive t i] is the child generator at index [i]. Pure: [t] is not
    advanced, and the child depends only on [t]'s current state and
    [i] — the same [(t, i)] always yields the same stream, regardless
    of any interleaving with other [derive] calls. This is what makes
    randomized encryption a function of row position. *)
