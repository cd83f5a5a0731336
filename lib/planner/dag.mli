(** Hash-consed plan DAGs.

    A node store keyed by canonical structural fingerprint
    ({!Fingerprint.of_plan} encodings — collision-free, so equal keys
    mean equal shapes by construction). {!intern} rewrites a plan tree
    bottom-up so every structurally identical subtree — across the
    queries of a serve batch, across cached shapes, or within one
    query — becomes one physically shared node. The returned plan is
    [Plan.equal_shape]-identical to the input; only sharing changes.

    Shared nodes are what multi-query optimization acts on: the
    serving layer plans/verifies per distinct key, memoizes sub-plan
    result tables for nodes the store has seen more than once, and
    executes each distinct node once per batch. Occurrence labelling
    caveat: on an interned plan one node may sit at several preorder
    positions, so position consumers must use
    {!Relalg.Plan.child_positions} traversal arithmetic, never
    id-keyed tables (see {!Engine.Exec}). *)

open Relalg

type t

type info = {
  rep : Plan.t;
      (** canonical representative; its children are themselves
          representatives *)
  size : int;  (** tree-equivalent node count of the subtree *)
  crypto_free : bool;
      (** no [Encrypt]/[Decrypt] node and no encrypted-at-rest base
          inside: the subtree's result is independent of its preorder
          position, so results may be shared across positions *)
  mutable occurrences : int;
      (** times the node occurred across all interned plans *)
}

val create : unit -> t

val intern : t -> Plan.t -> Plan.t
(** Hash-cons a plan into the store, returning its maximally shared
    form. Counts one occurrence per subtree encounter. Call only from
    one domain at a time (the serve coordinator): the store is not
    synchronized. *)

val fingerprint : t -> Plan.t -> string
(** Structural fingerprint, byte-identical to {!Fingerprint.of_plan}.
    Memoized for the store's representatives (the nodes {!intern}
    returns) and computed afresh for any other node, so the store grows
    only with distinct shapes. *)

val find : t -> Plan.t -> info option
val occurrences : t -> Plan.t -> int
val is_shared : t -> Plan.t -> bool
(** A node is shared once the store has seen its shape at least twice
    — the admission test for the sub-plan result cache. *)

val crypto_free : Plan.t -> bool
(** See {!type:info.crypto_free}; exported for tests. *)

type stats = {
  plans : int;
  nodes : int;
  occurrences : int;
  shared_nodes : int;
  shared_occurrences : int;
      (** subtree materializations saved by sharing *)
}

val stats : t -> stats
val clear : t -> unit
