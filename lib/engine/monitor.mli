(** Runtime reference monitor.

    Each data authority (and, defensively, every participant) re-checks
    authorizations before data crosses a subject boundary (Sec. 6: "each
    data authority will perform a control at its side, before releasing
    the data"). The monitor executes an extended plan and, at every edge
    whose endpoints have different executors, checks Def. 4.1 for the
    receiving subject against the transferred relation's profile. It also
    audits profile/data consistency: a column listed as visible encrypted
    must actually contain ciphertext, and vice versa. *)


type event = {
  node_id : int;
  kind : [ `Transfer of Authz.Subject.t | `Consistency ];
  detail : string;
}

type report = { events : event list; violations : event list }

exception Violation of event

val run :
  ?enforce:bool ->
  policy:Authz.Authorization.t ->
  Exec.context ->
  Authz.Extend.t ->
  Table.t * report
(** Execute under monitoring, checking each node in post-order as soon
    as its table exists (see {!Exec.run_with_hook}). With [enforce]
    (default [true]) the first violation raises {!Violation} and stops
    the plan there; otherwise violations are only collected in the
    report. *)

val check_consistency : Authz.Profile.t -> Table.t -> string option
(** [None] when the table's columns match the profile's visible
    plaintext/encrypted split. *)
