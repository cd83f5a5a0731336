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

    A ctx caches every cluster's derived scheme keys eagerly at
    construction, so per-value work is the cipher itself, not the PRF
    key schedule; the batched column kernels ({!encrypt_batch},
    {!decrypt_batch}) additionally share OPE partition-tree PRF work
    and split Paillier encryption into a pooled randomness pass plus a
    per-column exponentiation loop. *)

open Relalg

type ctx

exception Crypto_error of string

val make : Mpq_crypto.Keyring.t -> Authz.Plan_keys.cluster list -> ctx

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
    draw nothing), then per-scheme kernels run column-major — one
    memoized OPE coder per column, Paillier blinding off the hot path,
    unboxed loops on typed columns. *)

val decrypt_batch : ctx -> Column.t -> Column.t
(** Column counterpart of {!decrypt_value} (Null passes through), with
    per-key OPE coder caching across the batch. *)

val decrypt_value : ctx -> Value.t -> Value.t
(** Dispatches on the ciphertext's own scheme/key tags; [Null] passes
    through. Raises [Crypto_error] on plaintext input or unknown key. *)

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
    encrypted values"). *)

val phe_sum : ctx -> Value.t list -> avg:bool -> Value.t
(** Homomorphic aggregation of Paillier ciphertexts: the encrypted sum,
    or the encrypted average (sum plus divisor) when [avg] is set. *)

val serialize : Value.t -> string
val deserialize : string -> Value.t
