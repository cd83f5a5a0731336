(** Cardinality and size estimation.

    A textbook System-R-style estimator standing in for the PostgreSQL
    optimizer the paper reads its estimates from (DESIGN.md documents the
    substitution). Tracks per-attribute byte widths so that encryption's
    ciphertext expansion (per-scheme factors) shows up in transferred
    volumes. *)

open Relalg

type widths
(** Average bytes per attribute. *)

type stats = {
  card : float;  (** estimated row count *)
  widths : widths;
  row_bytes : float;  (** the sum of [widths], added in name order *)
}

type base_stats = string -> stats option
(** Statistics of base relations by name. *)

val equal : stats -> stats -> bool
(** Equal row counts and widths, float for float. *)

val row_bytes : stats -> float
val table_bytes : stats -> float

val of_widths : card:float -> (string * float) list -> stats
(** Stats of [card] rows whose attributes, named, have the given widths
    (a later entry for a name wins). *)

val width : stats -> Attr.t -> float
(** The width of an attribute, 8 bytes when the stats lack it. *)

val predicate_selectivity : Predicate.t -> float
(** CNF combination: clauses multiply, atoms of a disjunction add
    (capped at 1). *)

val node_stats :
  scheme_of:(Attr.t -> Mpq_crypto.Scheme.t) ->
  base:base_stats ->
  Plan.t ->
  stats list ->
  stats
(** [node_stats ~scheme_of ~base n children] is [n]'s output statistics
    given its children's, in child order: one step of {!annotate}. *)

val annotate :
  ?scheme_of:(Attr.t -> Mpq_crypto.Scheme.t) ->
  base:base_stats ->
  Plan.t ->
  stats Authz.Imap.t
(** Per-node output statistics. [scheme_of] determines the expansion
    factor applied by [Encrypt] nodes (default: deterministic). *)
