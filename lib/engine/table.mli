(** In-memory relations.

    A table is an ordered list of attributes, a row count and one typed
    column ({!Relalg.Column.t}) per attribute. Tables are immutable, so
    operators share columns between tables and across domains without
    copying. Bag semantics throughout (SQL-style: projection does not
    deduplicate). *)

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
(** [column t a] is [columns t].(col_index t a). *)

val value : t -> Value.t array -> Attr.t -> Value.t
(** [value t row a] reads attribute [a] of a row of [rows t]. *)

val select_columns : t -> Attr.t list -> t
(** Keep (and reorder to) the given columns; shares them, copies no
    cell. *)

val gather : t -> int array -> t
(** [gather t idx] has row [k] = row [idx.(k)] of [t]. *)

val sub : t -> int -> int -> t
(** [sub t pos len] keeps rows [pos .. pos + len - 1]. *)

val equal_bag : t -> t -> bool
(** Multiset equality up to row order and column order. *)

val byte_size : t -> int
(** Approximate size in bytes (used by cost accounting). *)

val pp : Format.formatter -> t -> unit
val to_string : ?limit:int -> t -> string
