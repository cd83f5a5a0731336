(** Textual format for schemas, subjects and authorizations.

    A small line-oriented DSL so policies can live in files and feed the
    CLI. Lines ([#] starts a comment):

    {v
    relation Hosp owner H (S string, B date, D string, T string)
    relation Rx owner H hosted W enc a,b (a int, b int, c string)
    relation Ins owner I (C string, P int)
    user U
    authority H
    provider X
    authorize Hosp to H plain S,B,D,T
    authorize Hosp to X plain D,T enc S
    authorize Ins to any enc P
    v}

    Column types: [int], [float], [string], [date], [bool]. Authorities
    named as relation owners are declared implicitly, as are the storage
    views of [hosted] (outsourced) relations; [hosted ... enc] lists the
    columns kept encrypted at the host (Sec. 9 extension).

    A subject name may be declared in more than one role (say authority
    [H] and provider [H]); such subjects are distinct. An [authorize]
    line naming one of them is then ambiguous and fails with a
    line-numbered [Syntax_error] ("ambiguous subject H: declared in more
    than one role"). *)

open Relalg

type t = {
  schemas : Schema.t list;
  subjects : Subject.t list;
  policy : Authorization.t;
}

exception Syntax_error of int * string  (** line number, message *)

val parse : string -> t
val load : string -> t
(** [load path] parses a file. *)

val example : string
(** The running example's policy, in DSL form. *)
