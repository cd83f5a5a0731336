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
    every assignable node — see {!Candidates.is_source_side}), through a
    fresh {!extender}.

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
(** Staged {!extend}: [extender ~policy ~config plan] derives once
    what no assignment changes — per original node, the attributes it
    needs in plaintext, the attribute groups it compares, and the
    implicit attributes of its logical profile (its {!builder}). Each
    application to an assignment builds that assignment's extension,
    node by node with {!step}.

    The extensions of one extender share their [assignment] map and
    [profiles] table, which hold every node it has built; a lookup by a
    node of the extension reads that node's entry. {!own} restricts an
    extension to its own nodes. The extender is mutable: do not share
    it between domains. *)

(** {1 One node at a time}

    What a node's subtree extends to depends on three things only: the
    assignment of the subtree's own nodes, the encrypted view of its
    parent's assignee (who must not receive plaintext that view
    encrypts), and the union of the encrypted views of every assignee
    above it (Def. 5.4's ancestor term, which reaches the node as one
    accumulated set). Both views are read only against the subtree's
    own profiles, so only their part over the attributes the subtree's
    nodes output matters. A planner that searches assignments one
    subtree at a time builds each subtree once per such inputs. *)

type builder
(** What every extension of one query shares: the per-node facts
    {!extender} derives once, and the [assignment] and [profiles]
    tables its extensions share. Mutable: do not share it between
    domains. *)

type site
(** An original node of the query, with what its extension reads that
    no assignment changes. *)

val builder :
  policy:Authorization.t ->
  config:Opreq.config ->
  ?deliver_to:Subject.t ->
  Plan.t ->
  builder

val root : builder -> site
val site_node : site -> Plan.t
val site_children : site -> site list

val inputs :
  builder -> site -> Subject.t -> above:Attr.Set.t ->
  (Attr.Set.t * Attr.Set.t) list
(** [inputs b site s ~above] are, per child of [site] in order, the
    [(parent_enc, above)] that child's subtree is extended under when
    [s] executes [site] and [above] is [site]'s own [above]: the
    encrypted view of [s] and the union of [above] with it, both cut to
    the attributes the child's subtree holds. The root's are both
    empty. Together with the child's subtree assignment they determine
    the child's extension. *)

val step :
  builder -> site -> Subject.t -> parent_enc:Attr.Set.t ->
  above:Attr.Set.t -> t list -> t
(** [step b site s ~parent_enc ~above children] extends [site] executed
    by [s] over its children's extensions, each built under the inputs
    {!inputs} gives it: the operation over its decrypted or repaired
    operands, then the encryption its parent's executor requires. The
    result's [plan] is the subtree's top node; its tables are [b]'s. *)

val deliver : builder -> t -> t
(** [deliver b root] is the root's extension with the final decryption
    for [deliver_to] appended, as {!extend} builds it. *)

val own : t -> t
(** [own t] is [t] with an [assignment] and [profiles] holding exactly
    the nodes of [t.plan]. *)

val verify : policy:Authorization.t -> t -> (unit, string) result
(** Def. 4.2 re-checked on the extended plan: every node's executor is
    authorized for its operands and its result (Thm. 5.3(i)). *)

val encrypted_attrs : t -> Attr.Set.t
(** Attributes involved in encryption operations ([Ak] of Def. 6.1);
    used by {!Plan_keys} and by the minimality tests of Thm. 5.3(ii). *)

val to_ascii : t -> string
(** Rendering with per-node executor and profile annotations. *)
