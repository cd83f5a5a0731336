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
    - [rnd]: randomized encryption — supports nothing, protects most. No
      operator reads an rnd ciphertext, so {!encrypt_batch} seals an rnd
      column ({!Relalg.Column.Sealed}) and its bytes are produced only
      where a cell is read: {!Relalg.Column.get} and
      {!Relalg.Column.to_values}, hence [Table.rows], CSV export and any
      operator that boxes the cell.

    Scheme keys live in a {!store}: each cluster's keys are derived
    once per store, so per-value work is the cipher itself, not the PRF
    key schedule. det and OPE are deterministic under a key, so each
    key also memoizes what it has produced (see {!store}). The batched
    column kernels ({!encrypt_batch}, {!decrypt_batch}) share OPE
    partition-tree PRF work and split Paillier encryption into a pooled
    randomness pass plus a per-column exponentiation loop. *)

open Relalg

type store
(** A keyring's derived cluster keys, its Paillier pair, and each key's
    ciphertext memo. A key is found by its cluster secret
    ({!Mpq_crypto.Keyring.cluster_secret}), not by its cluster id, so a
    store never answers for another seed. Per key, the memo maps a
    serialized plaintext to its det ciphertext (the det tails of OPE
    payloads included) and a cent/prefix image to its OPE cipher; rnd
    and phe are randomized and never memoized. A hit returns exactly the
    bytes the key would compute. Each of a key's two tables holds at
    most {!memo_cap} entries: an insert that would pass the cap clears
    that table first. The memo lives as long as the store, and a mutex
    per key guards it, so contexts on several domains may share a
    store. Obs counters [enc_exec.memo.hits] and [enc_exec.memo.misses]
    count the det/OPE cells served from the memo and the distinct
    values computed; [enc_exec.paillier.keygens] counts the Paillier
    pairs stores fetch from their keyrings — one keygen each, since a
    keyring generates its pair on first use. *)

type ctx

exception Crypto_error of string

val store : Mpq_crypto.Keyring.t -> store
(** An empty store over [keyring]. *)

val memo_cap : int
(** Entries per memo table of one key (2{^16}). *)

val of_store : store -> Authz.Plan_keys.cluster list -> ctx
(** A context whose keys and memos come from (and stay in) the store. *)

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
    draw nothing), then per-scheme kernels run column-major — det and
    OPE look every cell up in the key's memo and encrypt only the
    distinct misses (OPE in one sorted tree walk), Paillier blinding
    runs off the hot path. Errors raise in row order, as the row path's
    would; a sealed input column counts as the ciphertext it stands for
    ("already encrypted" at its first live row).

    An rnd result column is [Column.Sealed]: the input column, the
    pool's IVs and a closure that computes a cell's [Rnd.encrypt_iv]
    payload when the cell is read, so the bytes any reader sees are
    the row path's. The [enc_exec.enc_s.rnd] timer covers the sealing.
    Obs counters: [enc_exec.rnd.sealed] counts the live cells sealed,
    [enc_exec.rnd.materialized] the cells whose payload was computed
    later (on whichever domain read them). *)

val decrypt_batch : ctx -> Column.t -> Column.t
(** Column counterpart of {!decrypt_value} (Null passes through): the
    column's OPE prefixes decode in one tree walk per key. Errors raise
    in row order. A sealed column runs no cipher: its live cells come
    back as [deserialize (serialize v)] — what decrypting their payloads
    would give — after the same key check (an unknown key raises
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

val const_cipher : ctx -> Value.cipher -> Value.t -> Value.t
(** [const_cipher ctx sample const] encrypts a comparison constant under
    the same scheme and key as [sample], so a dispatched condition can be
    evaluated on encrypted values (Sec. 5's "condition formulated on
    encrypted values"). det and OPE constants go through the key's
    memo. *)

val phe_sum : ctx -> Value.t list -> avg:bool -> Value.t
(** Homomorphic aggregation of Paillier ciphertexts: the encrypted sum,
    or the encrypted average (sum plus divisor) when [avg] is set.
    Raises [Crypto_error] on a non-phe value, an aggregated input, or a
    malformed payload (the message names the scheme and key id). *)

val serialize : Value.t -> string
val deserialize : string -> Value.t

val rnd_payload_length : Value.t -> int
(** Length of an rnd payload of a (non-Null) plaintext, computed without
    encrypting: what a sealed cell's bytes will weigh. *)
