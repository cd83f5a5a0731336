(** Base-relation schemas.

    A base relation has a name, the data authority that controls it (the
    paper assumes each source relation is stored at its authority), and an
    ordered list of attributes with declared column types. *)

type column_type = Tint | Tfloat | Tstring | Tdate | Tbool

val type_name : column_type -> string
(** The policy language's name for a type: ["int"], ["float"],
    ["string"], ["date"], ["bool"]. *)

(** Where the relation physically lives. The paper's Sec. 9 extension:
    a source relation may be stored, possibly in encrypted form, at a
    third party rather than at its data authority. [host] names the
    storing subject (typically a provider); [encrypted] lists the
    columns kept encrypted at rest (the authority holds the keys). *)
type storage =
  | At_authority
  | Outsourced of { host : string; encrypted : Attr.Set.t }

type t = {
  name : string;
  owner : string;  (** name of the controlling data authority *)
  columns : (Attr.t * column_type) list;
  storage : storage;
}

val make :
  name:string ->
  owner:string ->
  ?storage:storage ->
  (string * column_type) list ->
  t
(** [make ~name ~owner cols] builds a schema; raises [Invalid_argument]
    on duplicate column names, or when [storage] mentions unknown
    columns. Default storage is [At_authority]. *)

val outsourced : host:string -> encrypted:string list -> storage

val stored_encrypted : t -> Attr.Set.t
(** Columns encrypted at rest (empty for authority-stored relations). *)

val host_name : t -> string
(** The storing subject: the host when outsourced, the owner otherwise. *)

val attrs : t -> Attr.Set.t
val attr_list : t -> Attr.t list
val arity : t -> int

val mem : t -> Attr.t -> bool
val type_of : t -> Attr.t -> column_type option

val pp : Format.formatter -> t -> unit
