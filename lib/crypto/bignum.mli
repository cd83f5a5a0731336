(** Arbitrary-precision integers.

    A from-scratch sign-magnitude bignum (base 2{^30} limbs) sufficient
    for the Paillier cryptosystem: modular exponentiation over ~512-bit
    moduli, Miller-Rabin primality, modular inverse. Implemented in-repo
    because the sealed build environment ships no [zarith]. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
val to_int_opt : t -> int option
(** [None] when the value does not fit in an OCaml [int]. *)

val of_string : string -> t
(** Decimal, with optional leading [-]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_even : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < |b|]
    (Euclidean remainder). Raises [Division_by_zero] when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t
(** Euclidean remainder, always non-negative. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bit_length : t -> int
val testbit : t -> int -> bool

val pow : t -> int -> t
val mod_pow : base:t -> exp:t -> modulus:t -> t
(** [mod_pow ~base ~exp ~modulus] with [exp >= 0], [modulus > 0]. *)

(** Montgomery arithmetic over a fixed odd modulus. Building a context
    costs one division; every subsequent modular multiplication or
    windowed exponentiation avoids division entirely — the batched
    Paillier kernels build one context per key and reuse it across a
    whole column. Results are bit-identical to {!mod_pow}/{!rem}. *)
module Mont : sig
  type ctx

  val create : t -> ctx
  (** Raises [Invalid_argument] unless the modulus is odd and positive. *)

  val mul : ctx -> t -> t -> t
  (** [mul ctx a b = a * b mod m]. *)

  val pow : ctx -> t -> t -> t
  (** [pow ctx base exp = base ^ exp mod m] by 4-bit windowed
      square-and-multiply over Montgomery representatives; [exp >= 0]. *)
end

val gcd : t -> t -> t
val lcm : t -> t -> t

val invmod : t -> t -> t option
(** [invmod a n] is [Some x] with [a*x ≡ 1 (mod n)] when
    [gcd a n = 1]. *)

val random_bits : Prng.t -> int -> t
(** Uniform value with at most [bits] bits. *)

val random_below : Prng.t -> t -> t
(** Uniform in [[0, bound)]; [bound > 0]. *)

val is_probable_prime : Prng.t -> t -> bool
(** Miller-Rabin with 24 random bases. *)

val random_prime : Prng.t -> int -> t
(** Random probable prime of exactly [bits] bits ([bits >= 2]). *)

val of_bytes_be : string -> t
(** Big-endian unsigned decoding. *)

val to_bytes_be : t -> string
(** Big-endian unsigned encoding of a non-negative value, no leading
    zero bytes (empty string for zero). *)
