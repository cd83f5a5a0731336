(** Order-preserving encryption.

    A stateless binary-partition OPE: the plaintext domain is recursively
    halved and each half is assigned a PRF-chosen, order-respecting slice
    of the ciphertext domain. Strictly monotone, deterministic, and
    invertible with the key — enough to evaluate range conditions over
    ciphertext (the paper cites Boldyreva-style OPE / CryptDB).

    Plaintexts are signed integers in [[-2{^39}, 2{^39})]; ciphertexts are
    non-negative ints below [2{^55}], so byte-encoded big-endian
    ciphertexts compare like the underlying values. *)

type key

val key_of_string : string -> key
(** 16-byte master key. *)

val plain_bits : int
(** Bits of the plaintext domain (signed values use one bit fewer). *)

val cipher_bits : int

val encrypt : key -> int -> int
(** Raises [Invalid_argument] if out of domain. *)

val decrypt : key -> int -> int
(** Raises [Invalid_argument] if the ciphertext is negative or not
    below [2{^cipher_bits}]. *)

val encrypt_bytes : key -> int -> string
(** Fixed-width big-endian encoding of [encrypt]; lexicographic byte
    comparison agrees with numeric order. *)

val decrypt_bytes : key -> string -> int

(** {2 Column kernel}

    Encrypting value by value repeats the PRF work of the partition
    tree's upper levels for every value. The array functions sort and
    deduplicate their input, descend the tree once over the sorted set
    (each visited node's PRF computed once, the points split between
    its halves by binary search), then map every input back to its
    image. Output is exactly [Array.map encrypt] / [Array.map decrypt],
    errors included: the first out-of-domain input, in array order,
    raises. {!encrypt} and {!decrypt} are the one-element case. *)

val encode_array : key -> int array -> int array
val decode_array : key -> int array -> int array

val bytes_of_cipher : int -> string
(** The fixed-width encoding {!encrypt_bytes} uses. *)

val cipher_of_bytes : string -> int
(** Inverse of {!bytes_of_cipher}; raises [Invalid_argument] on a bad
    width. *)
