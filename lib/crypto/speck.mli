(** Speck64/128 block cipher.

    64-bit blocks, 128-bit keys, 27 rounds — the reference add-rotate-xor
    design by Beaulieu et al. Used as the workhorse primitive behind the
    PRF and the symmetric encryption modes. *)

type key

val expand_key : string -> key
(** [expand_key k] derives the round keys from a 16-byte key string.
    Raises [Invalid_argument] if [k] is not 16 bytes. *)

type block = { mutable hi : int; mutable lo : int }
(** A 64-bit block as two 32-bit words: [hi] is bits 63..32 of the
    [int64] form, [lo] bits 31..0. *)

val encrypt_in_place : key -> block -> unit
(** Encrypts the block in place; allocates nothing. *)

val int64_of_block : block -> int64

val encrypt_block : key -> int64 -> int64
val decrypt_block : key -> int64 -> int64

val ctr_xor : key -> int64 -> string -> int -> Bytes.t -> int -> int -> unit
(** [ctr_xor k iv src src_off dst dst_off len] writes
    [src[src_off .. src_off+len)] XOR the CTR keystream into
    [dst[dst_off ..]]. Keystream block [i] is
    [encrypt_block k (Int64.add iv i)] in little-endian byte order.
    Raises [Invalid_argument] if either range is out of bounds. *)

val rounds : int
