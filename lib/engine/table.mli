(** In-memory relations.

    A table is an ordered list of attributes, a row count and one typed
    column ({!Relalg.Column.t}) per attribute. Bag semantics throughout
    (SQL-style: projection does not deduplicate).

    Inside the executor a column may be an index view: its row [k] is
    row [idx.(k)] of a source column, and its cells are not copied
    until something reads them. {!gather} and {!sub} make views (a
    view of a view composes the index arrays, one composition per
    distinct array), and {!column}, {!columns} and every reader below
    gather a view column the first time they read it, writing it back
    in place. So a table with views is not shared: it stays on the
    domain executing its plan, and [Exec] {!materialize}s every table
    it hands out (its result, the tables its sub-plan memo keeps and
    the tables its hook sees). A materialized table is never written
    again: operators share its columns between tables and across
    domains without copying. *)

open Relalg

type t

val create : Attr.t list -> Value.t array list -> t
(** Row adapter (CSV import, tests): builds the columns once. Raises
    [Invalid_argument] when a row's arity differs from the header's. *)

val of_columns : nrows:int -> Attr.t list -> Column.t array -> t
(** Columns are in header order. The row count is explicit so a table
    with no columns keeps its cardinality. Raises [Invalid_argument] on
    arity or length mismatch. *)

val of_schema : Schema.t -> Value.t array list -> t

val attrs : t -> Attr.t list
val cardinality : t -> int
val columns : t -> Column.t array
(** Materializes the table first. *)

val rows : t -> Value.t array list
(** Boxes every cell into row arrays; nothing is cached. For export,
    printing and tests, never for operators. *)

exception Unknown_attribute of { attr : string; columns : string list }
(** A column lookup named an attribute the table does not carry. Carries
    the offending attribute and the table's actual header so the error is
    actionable without a debugger ({!Exec} re-raises it as [Exec_error]
    with the operator that performed the lookup). *)

val col_index : t -> Attr.t -> int
(** Raises {!Unknown_attribute} for a foreign attribute. A repeated
    attribute resolves to its last position. *)

val col_index_opt : t -> Attr.t -> int option
(** {!col_index} without the exception. *)

val column : t -> Attr.t -> Column.t
(** [column t a] is [columns t].(col_index t a), gathering that column
    alone if it is a view. *)

val value : t -> Value.t array -> Attr.t -> Value.t
(** [value t row a] reads attribute [a] of a row of [rows t]. *)

val select_columns : t -> Attr.t list -> t
(** Keep (and reorder to) the given columns; shares them (views
    included), copies no cell. *)

val gather : ?len:int -> t -> int array -> t
(** [gather ?len t idx] has row [k] = row [idx.(k)] of [t], for [k]
    below [len] (default [Array.length idx]). Every column comes back a
    view and no cell is copied. The table never keeps [idx] itself, so
    [idx] may be scratch ({!Scratch}): the complete columns share one
    fresh copy of its first [len] cells, and the views over an array
    [a] share one fresh [a] composed with it. *)

val sub : t -> int -> int -> t
(** [sub t pos len] keeps rows [pos .. pos + len - 1], as a {!gather};
    the whole table comes back as is. *)

val beside : t -> t -> t
(** [beside a b] is [a]'s columns then [b]'s, views kept: a join's
    output. Raises [Invalid_argument] when the row counts differ. *)

val replace : t -> (int * Column.t) list -> t
(** [replace t [(j, c); ...]] is [t] with column [j] set to the
    complete column [c], every other column (view or not) kept. Raises
    [Invalid_argument] on a length mismatch. *)

val materialize : t -> t
(** Gathers every view column of [t], in place, and returns [t]. *)

val is_materialized : t -> bool
(** No column of [t] is a view. *)

val equal_bag : t -> t -> bool
(** Multiset equality up to row order and column order. *)

val byte_size : t -> int
(** Approximate size in bytes (used by cost accounting). *)

val pp : Format.formatter -> t -> unit
val to_string : ?limit:int -> t -> string
