(** Static plan verifier: re-derives every invariant of the
    multi-provider authorization model from first principles over a
    finished plan (extension + key clusters + dispatch requests) and
    reports structured {!Diag} findings.

    The verifier is pure and deterministic, and deliberately shares no
    derivation code with [Extend], the assignment search, or
    [Plan_keys]: each invariant is recomputed from the paper's
    definitions ({!Derive}, {!Check_profiles}, {!Check_authz},
    {!Check_minimal}, {!Check_keys}, {!Check_dispatch}), so a bug in the
    production pipeline cannot vouch for itself. *)

open Relalg
open Authz

type input = {
  policy : Authorization.t;
  config : Opreq.config;
  extended : Extend.t;
  clusters : Plan_keys.cluster list;
  requests : Dispatch.request list;
}

type check =
  | Profiles  (** V1 — Fig. 2 propagation re-derived (MPQ001–003) *)
  | Assignees  (** V2 — Def. 4.2 authorization (MPQ010–012) *)
  | Minimality  (** V3 — Thm. 5.3 minimal encryption (MPQ020) *)
  | Keys  (** V4 — Def. 6.1 key distribution (MPQ030–033) *)
  | Schemes  (** V5 — Sec. 6 scheme sufficiency (MPQ040–041) *)
  | Dispatch  (** V6 — Fig. 8 request well-formedness (MPQ050–055) *)

val all_checks : check list

val make_input :
  policy:Authorization.t ->
  config:Opreq.config ->
  original:Plan.t ->
  Extend.t ->
  input
(** Convenience: derive clusters and requests from the extended plan
    with the production pipeline, then verify those artifacts. *)

val run : ?checks:check list -> input -> Diag.t list
(** All findings of the selected checks (default: {!all_checks}),
    sorted. Derivation happens once and is shared. *)

val ok : Diag.t list -> bool
(** No [Error]-severity finding ([Warning]s allowed). *)

val report : Diag.t list -> string
(** {!Diag.render}. *)

val report_json : Diag.t list -> Json.t
