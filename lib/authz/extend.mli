(** Minimally extended authorized query plans (Def. 5.4, Fig. 7).

    Given a plan and an assignment of operations to candidates, inject
    on-the-fly decryption (before an operation, for attributes it must
    read in plaintext) and encryption (after an operation, for attributes
    its parent's assignee may only see encrypted, or that the parent
    turns implicit while some later assignee lacks plaintext visibility).
    Thm. 5.3: the result makes the assignment authorized and encrypts a
    minimal attribute set.

    Encryption/decryption operations are assigned to the subject of the
    node they complement; encryption over a source-side node is performed
    by the data authority itself (cf. Fig. 8, where H encrypts S). *)

open Relalg

type t = {
  plan : Plan.t;  (** the extended plan, with [Encrypt]/[Decrypt] nodes *)
  assignment : Subject.t Imap.t;
      (** executor of every node of the extended plan (leaves and
          source-side nodes map to the owning authority) *)
  profiles : (int, Profile.t) Hashtbl.t;
      (** output profile of every extended-plan node *)
}

val extend :
  policy:Authorization.t ->
  config:Opreq.config ->
  assignment:Subject.t Imap.t ->
  ?deliver_to:Subject.t ->
  Plan.t ->
  t
(** [extend ~policy ~config ~assignment plan] builds the minimally
    extended plan for [assignment] (keyed by original node ids, covering
    every assignable node — see {!Candidates.is_source_side}).

    [deliver_to] appends a final decryption of the root's encrypted
    visible attributes, executed by the given subject (normally the
    querying user, who must be authorized for the plaintext result). *)

val extender :
  policy:Authorization.t ->
  config:Opreq.config ->
  ?deliver_to:Subject.t ->
  Plan.t ->
  Subject.t Imap.t ->
  t
(** Staged {!extend}: [extender ~policy ~config plan] derives once what
    no assignment changes — per original node, the attributes it needs
    in plaintext, the attribute groups it compares, and the implicit
    attributes of its logical profile — into an immutable map. Each
    application to an assignment builds that assignment's extension; the
    encrypted views of a node's ancestors reach it as one accumulated
    set. A planner costing many assignments of one query builds the
    extender once. [extend ~assignment plan] is
    [extender plan assignment]. *)

val verify : policy:Authorization.t -> t -> (unit, string) result
(** Def. 4.2 re-checked on the extended plan: every node's executor is
    authorized for its operands and its result (Thm. 5.3(i)). *)

val encrypted_attrs : t -> Attr.Set.t
(** Attributes involved in encryption operations ([Ak] of Def. 6.1);
    used by {!Plan_keys} and by the minimality tests of Thm. 5.3(ii). *)

val to_ascii : t -> string
(** Rendering with per-node executor and profile annotations. *)
