(** Authorization facts — the atoms of the dependency analysis.

    A fact [(subject, attribute, level)] states that the subject's
    overall view ({!Authz.Authorization.view}) grants the attribute at
    that level: [Plain] means the attribute is in the subject's
    plaintext set [P], [Enc] that it is in the encrypted-visibility set
    [E]. Facts are deliberately view-level rather than rule-level:
    every consumer of the policy inside the verifier and the planner's
    user-input gate reads subject {e views} (per-relation rules are
    unioned first, and {!Authz.Authorization.make} injects implicit
    owner and outsourced-host rules), so two policies with identical
    views are indistinguishable to a cached plan even when their rule
    lists differ. *)

open Relalg
open Authz

type level = Plain | Enc

val compare_level : level -> level -> int
val level_name : level -> string

type t = { subject : Subject.t; attr : Attr.t; level : level }

val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Set : sig
  include Stdlib.Set.S with type elt = t

  val to_string : t -> string
end

val of_levels : Subject.t -> plain:Attr.Set.t -> enc:Attr.Set.t -> Set.t
(** [(s, a, Plain)] for [a ∈ plain] and [(s, a, Enc)] for [a ∈ enc]. *)

val of_view : Subject.t -> Authorization.view -> Set.t
(** Every fact a view grants: [(s, a, Plain)] for [a ∈ view.plain],
    [(s, a, Enc)] for [a ∈ view.enc]. *)

val profile_reads : Profile.t -> Attr.Set.t * Attr.Set.t
(** [(plain, enc)]: the attributes Def. 4.1 consults at each level when
    checking a subject [s] against a relation profile
    ({!Verify.Check_authz.check_view}). Plaintext content ([vp ∪ ip])
    reads the [Plain] facts; encrypted content ([ve ∪ ie]) reads both
    levels (membership in [P ∪ E]); and every attribute of every
    equivalence class reads both levels (uniform visibility needs the
    class inside [P] or inside [E]). Mutating any fact outside
    [of_levels s ~plain ~enc] cannot change the check's verdict on this
    (subject, profile) pair. *)
