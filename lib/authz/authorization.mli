(** Authorizations and policies (Def. 2.1, Fig. 4).

    Each data authority independently grants, per relation, plaintext
    visibility over a set [P] of attributes and encrypted visibility over
    a disjoint set [E], to a subject or to [any] (the default applying to
    subjects without an explicit rule). The policy is closed: what is not
    granted is not visible. *)

open Relalg

type grantee = To of Subject.t | Any

type rule = {
  relation : string;
  grantee : grantee;
  plain : Attr.Set.t;
  enc : Attr.Set.t;
}

val rule :
  rel:string -> ?plain:string list -> ?enc:string list -> grantee -> rule
(** Convenience constructor; raises [Invalid_argument] when [plain] and
    [enc] intersect. *)

(** A subject's overall view: the [P_S] / [E_S] shorthand of Sec. 4.
    [enc] lists attributes with encrypted-only visibility ([P] and [E]
    stay disjoint); plaintext visibility implies the right to see the
    encrypted form too (Def. 4.1, condition 2). *)
type view = { plain : Attr.Set.t; enc : Attr.Set.t }

type t
(** A policy: base schemas plus rules. *)

val make : schemas:Schema.t list -> rule list -> t
(** Validates the policy. Raises [Invalid_argument] when a rule targets
    an unknown relation or attribute, when [P] and [E] overlap, or when a
    (relation, grantee) pair carries more than one rule (the paper allows
    at most one authorization per subject per relation). The owner of
    each relation implicitly holds full plaintext visibility on it unless
    it carries an explicit rule.

    The overall view of every subject some rule names, and the view of
    any other subject, are derived here once: {!view} is a lookup. *)

val schemas : t -> Schema.t list
val rules : t -> rule list

val relation_view : t -> string -> Subject.t -> view
(** [relation_view t rel s]: what [s] may see of relation [rel] — the
    subject's explicit rule if any, else the relation's [any] rule, else
    nothing. *)

val view : t -> Subject.t -> view
(** Overall view across all relations (Fig. 4's "authorized attributes"),
    unioning per-relation views. A lookup keyed by the whole subject,
    role and name: an authority and a provider that share a name hold
    distinct views. *)

val explicit_subjects : t -> Subject.Set.t
(** Subjects named by some rule (excluding [Any]). *)

val pp_rule : Format.formatter -> rule -> unit
val pp_view : Format.formatter -> view -> unit
val pp : Format.formatter -> t -> unit
