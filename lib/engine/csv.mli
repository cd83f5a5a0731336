(** CSV import/export for base relations.

    RFC-4180-style parsing: comma-separated, double-quoted fields with
    [""] escapes, a header row. Values are parsed according to
    the schema's column types; empty unquoted fields become [Null]. *)

open Relalg

exception Csv_error of string

val parse : Schema.t -> string -> Table.t
(** [parse schema text]. The first row must name the schema's columns
    (any order). *)

val load : Schema.t -> string -> Table.t
(** [load schema path] reads a file. *)

val to_string : Table.t -> string
(** Render with a header row; ciphertext values are hex-encoded with a
    [enc:] prefix (not re-importable — export decrypted data instead). *)
