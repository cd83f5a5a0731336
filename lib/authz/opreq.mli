(** Operation requirements: which attributes an operator needs in
    plaintext (the per-node set [Ap] of Sec. 5).

    "For operations that are not supported by cryptographic techniques
    (not existing or not available to the application), we assume the
    optimizer to specify the need for maintaining data in plaintext."
    The configuration says which computation classes the deployment can
    run over ciphertext (equality via deterministic encryption, order via
    OPE, addition via Paillier); whatever falls outside lands in [Ap].
    [forced_plaintext] carries per-node overrides — both user-specified
    ones and those added by scheme-conflict resolution. *)

open Relalg

type config = {
  equality_over_cipher : bool;
  order_over_cipher : bool;
  addition_over_cipher : bool;
  enc_capable_udfs : string list;
      (** udf names evaluable over encrypted inputs *)
  forced_plaintext : Attr.Set.t Imap.t;  (** extra [Ap] per node id *)
}

val default : config
(** Everything the paper's tool supports: equality (det), order (OPE),
    addition (Paillier); udfs need plaintext. *)

val strict : config
(** No computation over ciphertext at all (every operator needs its
    operands in plaintext) — useful as a baseline. *)

val force_plaintext : config -> int -> Attr.Set.t -> config
(** Add a per-node plaintext requirement. *)

val plaintext_attrs : config -> Plan.t -> Attr.Set.t
(** [Ap] for the given node: attributes of its operands it must read in
    plaintext. Empty for leaves, projections, products, crypto ops. A
    sum or average over an attribute that is itself a sum or average
    computed below needs it in plaintext: an aggregated Paillier value
    cannot be added again. *)

val capability_demands : Plan.t -> (Attr.t * Mpq_crypto.Scheme.capability) list
(** Computation classes each attribute is subjected to at this node
    (independent of the config): used for scheme selection and conflict
    resolution. *)

val resolve_conflicts : config -> Plan.t -> config
(** Iteratively extend [forced_plaintext] until, for every attribute, the
    set of capabilities demanded at nodes where it would be processed
    encrypted is satisfiable by a single scheme (a ciphertext cannot be
    simultaneously, say, additively homomorphic and order-preserving).
    On conflict the node closest to the root loses and gets the
    attribute in plaintext — late decryption never poisons profiles below
    it, while early plaintext would leave an implicit plaintext trace on
    everything above (Sec. 5's max-visibility pitfall). *)

val schemes : config -> Plan.t -> Attr.t -> Mpq_crypto.Scheme.t
(** The paper's rule (Sec. 6): strongest scheme supporting every
    operation executed over the attribute's ciphertext ([Rnd] when no
    such operation exists), per equivalence class of the root's logical
    profile. Call after {!resolve_conflicts}.

    Staged: [schemes config plan] derives the profile and the demands
    over the whole plan once and resolves every class eagerly; the
    returned lookup only reads a table nothing writes after [schemes]
    returns, so it may be called from any domain. A class whose demands
    no scheme supports raises [Invalid_argument] at lookup, naming the
    attribute. *)

type demands = {
  equality : Attr.Set.t;
  order : Attr.Set.t;
  addition : Attr.Set.t;
}
(** Capability demands as one attribute set per capability: the
    attributes some operation compares for equality, orders, or adds
    over ciphertext. *)

val no_demands : demands
val add_demand : demands -> Attr.t * Mpq_crypto.Scheme.capability -> demands
val union_demands : demands -> demands -> demands

val class_schemes :
  conflict:(Attr.t -> string) ->
  Partition.t ->
  demands ->
  Attr.t ->
  Mpq_crypto.Scheme.t
(** [class_schemes ~conflict eq demands]: the resolver behind {!schemes}
    and [Plan_keys.actual_schemes]. Each class of [eq] (and each other
    attribute, as a singleton) gets the strongest scheme supporting the
    capabilities [demands] asks on its members; a lookup on a class no
    scheme supports raises [Invalid_argument (conflict a)]. The lookup
    reads a table that is complete when [class_schemes] returns. *)
