(** Value-level encryption for plan execution.

    Bridges the abstract [Encrypt]/[Decrypt] plan operators and the
    concrete schemes in [mpq_crypto]. Each attribute is encrypted under
    its key cluster (Def. 6.1) with the cluster's scheme:

    - [det]: SIV deterministic encryption of the serialized value —
      supports equality, grouping, equi-joins;
    - [ope]: order-preserving encryption of the cent-scaled numeric
      image (strings by 4-byte prefix; strings and sub-cent floats keep
      a det tail for exact recovery) — supports range conditions, min/max;
    - [phe]: Paillier over the cent-scaled numeric value — supports
      sum/avg; aggregated ciphertexts carry the divisor for avg;
    - [rnd]: randomized encryption — supports nothing, protects most.

    No operator needs a det, OPE or rnd ciphertext's bytes: operators
    compare cells, and under one key a det or OPE comparison is a
    function of the plaintext. So {!encrypt_batch} seals such a column
    ({!Relalg.Column.Sealed}) and its bytes are produced only where a
    cell is read: {!Relalg.Column.get} and {!Relalg.Column.to_values},
    hence [Table.rows], CSV export and any operator that boxes the
    cell. Comparisons read the plaintext instead ({!sealed_equal},
    {!sealed_order}, {!sealed_key}), so a cipher runs only when a cell
    is materialized. phe columns stay eager: they draw Paillier units.

    Scheme keys live in a {!store}: each cluster's keys are derived
    once per store, so per-value work is the cipher itself, not the PRF
    key schedule. The batched column kernels ({!encrypt_batch},
    {!decrypt_batch}) split Paillier encryption into a pooled
    randomness pass plus a per-column exponentiation loop, and decode
    a column's OPE prefixes in one partition-tree walk per key. *)

open Relalg

type store
(** A keyring's derived cluster keys and its Paillier pair. A key is
    found by its cluster secret ({!Mpq_crypto.Keyring.cluster_secret}),
    not by its cluster id, so a store never answers for another seed.
    Keys are immutable once derived and a lock guards the key table, so
    contexts on several domains may share a store. Obs counters:
    [enc_exec.keys.derived] counts the cluster keys stores derive, and
    [enc_exec.paillier.keygens] the Paillier pairs stores fetch from
    their keyrings — one keygen each, since a keyring generates its
    pair on first use. *)

type ctx

exception Crypto_error of string

val store : Mpq_crypto.Keyring.t -> store
(** An empty store over [keyring]. *)

val of_store : store -> Authz.Plan_keys.cluster list -> ctx
(** A context whose keys come from (and stay in) the store. *)

val make : Mpq_crypto.Keyring.t -> Authz.Plan_keys.cluster list -> ctx
(** [make keyring clusters] is [of_store (store keyring) clusters]: a
    context with a private store. *)

val of_schemes :
  Mpq_crypto.Keyring.t -> (string * Mpq_crypto.Scheme.t) list -> ctx
(** Convenience: one singleton cluster per (attribute name, scheme),
    with every subject a holder. For tests and standalone use. *)

val clusters : ctx -> Authz.Plan_keys.cluster list

val scheme_of : ctx -> Attr.t -> Mpq_crypto.Scheme.t
(** Raises [Crypto_error] when the attribute belongs to no cluster. *)

val encrypt_value : ?rng:Mpq_crypto.Prng.t -> ctx -> Attr.t -> Value.t -> Value.t
(** [Null] passes through unencrypted. [rng] overrides the keyring's
    shared randomness stream; the executor passes generators derived
    from (node preorder position, row index) so ciphertext bytes are a
    function of position, not of evaluation order or physical plan
    identity — the property that makes DAG-interned plans (where one
    physical node occurs at several positions) byte-identical to their
    tree-shaped originals. *)

val encrypt_each :
  ctx -> Attr.t -> rng:(int -> Mpq_crypto.Prng.t) -> Value.t array -> Value.t array
(** [encrypt_each ctx a ~rng vs] is
    [Array.mapi (fun k v -> encrypt_value ~rng:(rng k) ctx a v) vs],
    byte for byte and error for error, with an OPE attribute's cells
    encoded in one tree walk ({!Mpq_crypto.Ope.encode_array}) instead of
    one walk per cell. *)

val node_rng : ctx -> int -> Mpq_crypto.Prng.t
(** [node_rng ctx pos] is the randomness root for the plan-node
    occurrence at preorder position [pos]; derive one child per row
    ({!Mpq_crypto.Prng.derive}) to encrypt under it. *)

val encrypt_batch :
  ctx ->
  rng_root:Mpq_crypto.Prng.t ->
  enc:(Attr.t * Column.t) list ->
  Column.t list
(** [encrypt_batch ctx ~rng_root ~enc] encrypts whole columns. [enc]
    pairs each encrypted attribute (in the randomness-draw order —
    ascending attribute order) with its column of the node's input; the
    result columns are in the same order. Byte-identical to encrypting
    the same rows one at a time with
    [encrypt_value ~rng:(Prng.derive rng_root row)]: a pool pass replays
    the row-major randomness draws (Rnd IVs, Paillier units; Null cells
    draw nothing), then per-scheme kernels run column-major. Errors
    raise in row order, as the row path's would — OPE images out of
    range included, though no OPE cipher runs here; a sealed input
    column counts as the ciphertext it stands for ("already encrypted"
    at its first live row).

    A det, OPE or rnd result column is [Column.Sealed]: the input
    column, one word per row (the pool's IV for rnd, the cent/prefix
    image for OPE, none for det) and a closure that computes a cell's
    payload when the cell is read, so the bytes any reader sees are the
    row path's. The [enc_exec.enc_s.<scheme>] timers cover the sealing.
    Obs counters: [enc_exec.<scheme>.sealed] counts the live cells
    sealed, [enc_exec.<scheme>.materialized] the cells whose payload was
    computed later (on whichever domain read them). *)

val decrypt_batch : ctx -> Column.t -> Column.t
(** Column counterpart of {!decrypt_value} (Null passes through): the
    column's OPE prefixes decode in one tree walk per key. Errors raise
    in row order. A sealed column runs no cipher: its live cells come
    back as what decrypting their payloads would give —
    [deserialize (serialize v)], or for a tail-free OPE float its cent
    image over 100 — after the same key check (an unknown key raises
    [Crypto_error] when the column has a live cell). *)

val decrypt_value : ctx -> Value.t -> Value.t
(** Dispatches on the ciphertext's own scheme/key tags; [Null] passes
    through. Raises [Crypto_error] on plaintext input, an unknown key,
    or a malformed payload (the message names the scheme and key id). *)

val ope_compare : Value.cipher -> Value.cipher -> int
(** Order of two OPE ciphertexts under the same key: compares the
    order-preserving 7-byte prefixes only (the tag byte and a string's
    deterministic tail carry no order). Numeric images tied at cent
    precision compare equal. Raises [Crypto_error] for distinct strings
    sharing a 4-byte prefix (their order is not recoverable from
    ciphertext) and for ciphertexts of incomparable types. *)

val ope_equal : Value.cipher -> Value.cipher -> bool
(** Total equality test: payload equality, or prefix equality for
    numeric images (Int 4 = Float 4.0 at cent precision). Never
    raises on tied string prefixes — the deterministic tail decides. *)

val ope_equal_key : Value.cipher -> string
(** A string shared by any two OPE ciphertexts under one key that
    {!ope_equal} accepts: the type class and the order prefix, or the
    whole payload for a string. *)

val const_cipher : ctx -> Value.cipher -> Value.t -> Value.t
(** [const_cipher ctx sample const] encrypts a comparison constant under
    the same scheme and key as [sample], so a dispatched condition can be
    evaluated on encrypted values (Sec. 5's "condition formulated on
    encrypted values"). Raises [Crypto_error] for a key the context
    lacks and for a constant with no image under the scheme. *)

(** {2 Sealed cells}

    What comparing two live sealed cells' ciphertexts would say, read
    off their plaintexts and words. The callers check that both cells
    are live and share scheme and key, as [Eval] checks ciphertexts. *)

val sealed_equal : Column.sealed -> int -> Column.sealed -> int -> bool
(** Equality of two det or OPE cells. det: equality of {!serialize}
    (Int 4 and Float 4.0 differ, so do [-0.0] and [0.0], and [nan] and
    [-nan]). OPE: {!ope_equal} — the same type class, then the same cent
    image, or for strings the same string. *)

val sealed_order : Column.sealed -> int -> Column.sealed -> int -> int
(** {!ope_compare} of two OPE cells, errors included: the order of the
    images, numeric ties equal, and [Crypto_error] for distinct strings
    sharing a 4-byte prefix or for incomparable type classes. *)

val sealed_key : join:bool -> Column.sealed -> int -> string
(** A bucket key for a det or OPE cell (["_"] for Null). With [~join],
    it names the scheme and key, and two cells of any sealed columns
    share it iff {!sealed_equal} holds: a hash join's key. Without, two
    cells of one column share it iff their payloads are equal: a
    group-by's key (OPE Int 4 and Float 4.0 then differ). *)

val typed_equal :
  Column.sealed -> Column.sealed -> (int -> int -> bool) option
(** For two det or OPE columns under one scheme and key whose plain
    columns are typed (no Null), {!sealed_equal} of row [i] of the first
    and row [j] of the second, with the type class checked once for the
    pair of columns. [None] for another scheme or a boxed plain column. *)

val typed_order :
  Column.sealed -> Column.sealed -> (int -> int -> int) option
(** {!sealed_order} over two OPE columns with typed plain columns, the
    type classes checked once; its errors raise at the cell pair that
    makes them. [None] for a boxed plain column. *)

val ope_const_image : Column.sealed -> Column.sealed -> int option
(** [ope_const_image s k], for an OPE column [s] whose plain column is
    typed and not strings and a one-cell constant [k] ({!const_sealed})
    of the same type class: [k]'s image, which row [i] of [s] compares
    with as its word ({!Relalg.Column.word}) does — {!sealed_equal} is
    equality of the two, {!sealed_order} their order. *)

val sealed_int_keys :
  Column.sealed -> Column.sealed -> ((int -> int) * (int -> int)) option
(** For two typed sealed columns under one scheme and key whose cells an
    int identifies under {!sealed_equal} — det over ints or over dates,
    OPE over numbers, dates or booleans (the image) — that int for a row
    of either column. *)

val sealed_payload_length : Column.sealed -> Value.t -> int
(** Length of the payload a sealed column's (non-Null) plaintext would
    encrypt to, computed without encrypting. *)

val const_ciphers :
  ctx -> Value.cipher -> Value.t array -> (Value.t, exn) result array
(** [const_ciphers ctx sample consts] is {!const_cipher} of each plaintext
    constant, or the exception it raises, with an OPE cluster's
    constants encoded in one tree walk. *)

val const_sealed : ctx -> Column.sealed -> Value.t -> Column.sealed
(** [const_sealed ctx sample const] is {!const_cipher} for a sealed
    sample: a one-cell sealed column holding the plaintext constant under
    [sample]'s scheme and key, with no cipher run. Raises as
    {!const_cipher} would. *)

val phe_sum : ctx -> Value.t list -> avg:bool -> Value.t
(** Homomorphic aggregation of Paillier ciphertexts: the encrypted sum,
    or the encrypted average (sum plus divisor) when [avg] is set.
    Raises [Crypto_error] on a non-phe value, an aggregated input, or a
    malformed payload (the message names the scheme and key id). *)

val serialize : Value.t -> string
val deserialize : string -> Value.t
