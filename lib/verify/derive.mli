(** Independent re-derivation of relation profiles (Def. 3.1, Fig. 2).

    This is the verifier's own implementation of the profile propagation
    rules, written from the paper and deliberately sharing no derivation
    code with [Authz.Profile.of_node] (or with [Extend]): a bug in the
    production propagation cannot hide from the checker by also living in
    it. Profiles are re-built bottom-up by direct record construction;
    only the plain data structures ([Profile.t], [Partition.t]) are
    shared. *)

open Relalg
open Authz

exception Not_derivable of int * string
(** Raised by {!strict} when an operator's precondition fails: node id
    and reason. *)

val strict : ?drop:int * Attr.t -> Plan.t -> (int, Profile.t) Hashtbl.t
(** Re-derive the profile of every node. [drop (id, a)] simulates the
    removal of attribute [a] from the [Encrypt] node [id] — used by the
    minimality checker: downstream decryptions of [a] become no-ops, and
    every other precondition stays strict. Raises {!Not_derivable}. *)

val lenient :
  ?paths:(int, string) Hashtbl.t ->
  Plan.t ->
  (int, Profile.t) Hashtbl.t * Diag.t list
(** Like {!strict} without [drop], but precondition violations are
    reported as [MPQ002] diagnostics and propagation continues on a
    best-effort profile (non-visible operands are skipped, crypto
    operations move only the attributes actually in the expected
    state). *)
