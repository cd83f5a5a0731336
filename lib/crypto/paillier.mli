(** Paillier additively homomorphic cryptosystem.

    Supports [add] on ciphertexts (product mod n²) and multiplication by a
    plaintext scalar — what the paper needs to compute [sum]/[avg]
    aggregates over encrypted values at an untrusted provider. Built on
    the in-repo {!Bignum}. Key sizes here are simulation-grade. *)

type public = { n : Bignum.t; n2 : Bignum.t; mont : Bignum.Mont.ctx }
(** The public key carries a Montgomery context for n² so every
    ciphertext operation (encrypt, add, scalar multiply, decrypt) runs
    division-free; it is built once at {!keygen}. *)

type secret

val keygen : ?bits:int -> Prng.t -> public * secret
(** [keygen ~bits rng] generates a modulus of [bits] bits (default 256). *)

val encrypt : public -> Prng.t -> Bignum.t -> Bignum.t
(** [encrypt pk rng m] for [0 <= m < n]. Negative plaintexts are mapped
    to [n + m] (two's-complement-style encoding, see {!decrypt_signed}). *)

val blinding : public -> Prng.t -> Bignum.t
(** The blinding factor r^n mod n² for a fresh random unit r — the
    expensive, plaintext-independent half of {!encrypt}. Batched kernels
    precompute pools of these off the hot path, one per (row, column)
    position, from position-derived generators. *)

val draw_unit : public -> Prng.t -> Bignum.t
(** Just the random unit r (the part of {!blinding} that consumes
    randomness) — a pool pass records these in deterministic draw order,
    then {!blinding_of_unit} pays the exponentiation per column. *)

val blinding_of_unit : public -> Bignum.t -> Bignum.t
(** [blinding pk rng = blinding_of_unit pk (draw_unit pk rng)]. *)

val encrypt_blinded : public -> Bignum.t -> Bignum.t -> Bignum.t
(** [encrypt_blinded pk rn m] finishes an encryption with a precomputed
    blinding factor: [encrypt pk rng m = encrypt_blinded pk (blinding pk
    rng) m], byte for byte. *)

val decrypt : public -> secret -> Bignum.t -> Bignum.t
(** Plain decryption in [[0, n)]. *)

val decrypt_signed : public -> secret -> Bignum.t -> Bignum.t
(** Decryption mapping residues above [n/2] to negative values. *)

val add : public -> Bignum.t -> Bignum.t -> Bignum.t
(** Homomorphic addition: [dec (add pk c1 c2) = m1 + m2]. *)

val mul_scalar : public -> Bignum.t -> Bignum.t -> Bignum.t
(** [mul_scalar pk c k]: [dec = m * k]. *)

val cipher_to_string : Bignum.t -> string
