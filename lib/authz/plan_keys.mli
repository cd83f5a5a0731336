(** Query-plan keys (Def. 6.1).

    Attributes involved in encryption operations are clustered by the
    equivalence sets of the root's profile — compared attributes must
    share a key or the comparison (e.g. a deterministic-encryption
    equi-join) could not run — and one key is established per cluster.
    A cluster's key goes only to the subjects performing encryption or
    decryption operations over its attributes, which are authorized for
    the plaintext by construction. *)

open Relalg

type cluster = {
  id : string;  (** canonical name, e.g. ["SC"]; also the key identifier *)
  attrs : Attr.Set.t;
  scheme : Mpq_crypto.Scheme.t;
      (** strongest scheme supporting the operations run over the
          cluster's ciphertexts (Sec. 6) *)
  holders : Subject.Set.t;
      (** subjects that receive the key: assignees of encryption or
          decryption operations touching the cluster *)
}

val actual_schemes : original:Plan.t -> Extend.t -> Attr.t -> Mpq_crypto.Scheme.t
(** The paper's scheme-selection rule applied to the {e final} extended
    plan: an operation contributes a capability demand for an attribute
    only when it actually reads that attribute encrypted there; each key
    cluster (equivalence classes of the root profile) gets the strongest
    scheme supporting its demands, and [Rnd] when nothing computes on its
    ciphertexts.

    Staged: [actual_schemes ~original] derives the original plan's root
    equivalence classes once. Applying the result to an extension
    resolves that extension's demands once per class (see
    {!Opreq.class_schemes}). The demands of each extended subtree are
    kept by its root's id, so a later extension that holds the subtree
    reads them back: sound for extensions whose nodes keep one profile
    each, as the extensions of one {!Extend.extender} do. Planning
    reuses the first stage for every extension it costs. *)

val compute :
  config:Opreq.config -> original:Plan.t -> Extend.t -> cluster list
(** Clusters for a minimally extended plan, with {!actual_schemes}.
    [original] is the plan the extension was built from. *)

val cluster_of_attr : cluster list -> Attr.t -> cluster option

val pp_cluster : Format.formatter -> cluster -> unit
