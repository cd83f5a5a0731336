(** Pseudo-random function built on Speck64/128.

    A prefix-free CBC-MAC over 8-byte blocks. Provides keyed hashing for
    key derivation, deterministic-encryption synthetic IVs, and the OPE
    scheme's pivot sampling. *)

type t

val create : string -> t
(** [create key] with a 16-byte key. *)

val mac : t -> string -> int64
(** 64-bit tag of an arbitrary-length message. *)

val mac_sub : t -> Bytes.t -> int -> int -> int64
(** [mac_sub t b off len] is [mac t (Bytes.sub_string b off len)],
    read in place. *)

val mac_bytes : t -> string -> string
(** 8-byte tag: the little-endian bytes of {!mac}. *)

val expand : t -> string -> int -> string
(** [expand t label n] derives [n] pseudo-random bytes bound to [label]
    (counter mode over the MAC). Used for subkey derivation. *)

val int_below : t -> string -> int -> int
(** [int_below t label bound] is a deterministic pseudo-random value in
    [[0, bound)] bound to [label]; [bound > 0]. *)

val int_below_sub : t -> Bytes.t -> int -> int -> int -> int
(** [int_below_sub t b off len bound] is
    [int_below t (Bytes.sub_string b off len) bound], read in place. *)
