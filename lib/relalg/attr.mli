(** Attribute identifiers.

    Attributes are globally-named columns of base or derived relations.
    The paper's running example uses one-letter names (S, B, D, T, C, P);
    TPC-H uses qualified names such as [l_extendedprice].

    An attribute is interned: {!make} returns the one record that exists
    for its name, holding the name and a dense id (0, 1, 2, … in the
    order names were first made). {!equal} and {!hash} read the id;
    {!compare} still orders by name, and so does a polymorphic compare,
    so maps, sorts and printed output do not depend on which name was
    made first. The intern table is safe to use from any domain. It
    never forgets a name: parse paths resolve a client's names against
    a catalog with {!find} or by string, and make only names a schema
    declares. *)

type t

val make : string -> t
(** [make name] is the attribute named [name], interned on first use.
    Names are case-sensitive and must be non-empty. *)

val find : string -> t option
(** [find name] is the attribute named [name] if it has been made, and
    interns nothing. *)

val interned : unit -> int
(** The number of names interned so far. *)

val name : t -> string

val compare : t -> t -> int
(** By name. *)

val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit

(** Finite sets of attributes: immutable bitsets over the ids, so set
    algebra is a few word operations. The representation is canonical
    (no trailing zero words): equal sets are structurally equal, and
    polymorphic equality and hashing agree with {!equal}.

    Every operation that exposes an order ({!elements}, {!fold},
    {!iter}, {!min_elt}, {!compare}, {!to_string}) visits the members
    in name order, through a rank table kept beside the intern table,
    whatever order the names were interned in. Float sums over a set
    and everything printed from one therefore match a name-sorted set.
    Sets print in the paper's compact rendering (attribute names
    concatenated when they are single letters, comma-separated
    otherwise). *)
module Set : sig
  type elt = t
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : elt -> t -> bool
  val add : elt -> t -> t
  val singleton : elt -> t
  val remove : elt -> t -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t

  val disjoint : t -> t -> bool
  (** [disjoint a b] is [is_empty (inter a b)], without building the
      intersection. *)

  val subset : t -> t -> bool
  val equal : t -> t -> bool

  val compare : t -> t -> int
  (** Lexicographic over the members in name order (a prefix first), as
      for sets of names. *)

  val cardinal : t -> int
  val elements : t -> elt list
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val iter : (elt -> unit) -> t -> unit

  val filter : (elt -> bool) -> t -> t
  (** The predicate must not depend on the order it is called in. *)

  val min_elt : t -> elt
  (** The member first in name order. Raises [Not_found] on [empty]. *)

  val of_list : elt list -> t

  val of_names : string list -> t
  (** [of_names ["S"; "D"; "T"]] builds the set {S, D, T}, interning the
      names. *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

module Map : Stdlib.Map.S with type key = t
(** Keyed in name order. *)
