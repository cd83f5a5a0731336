(** V4/V5 — query-plan keys (Def. 6.1) and scheme sufficiency (Sec. 6).

    [distribution] re-checks the key-distribution invariants: every
    holder of a cluster key is plaintext-authorized for the cluster's
    attributes ([MPQ030]); every encryption/decryption executor — and
    the authority provisioning at-rest encryption — holds the keys it
    needs ([MPQ031]); no key reaches a subject with no
    encryption/decryption duty over it ([MPQ032], Warning); every
    attribute that is ever encrypted belongs to a cluster ([MPQ033]).

    [schemes] re-extracts, with its own scan, the computations each node
    runs over ciphertext and checks the owning cluster's scheme supports
    them ([MPQ040]): equality tests need Det or Ope, order tests Ope,
    additive aggregation Phe, LIKE patterns and non-capable udfs nothing
    at all. A sum or average over an encrypted sum or average is refused
    whatever the scheme ([MPQ041]): an aggregated Paillier value carries
    its own sum and count and cannot be added again. *)

open Relalg
open Authz

val duty_map : Extend.t -> Attr.Set.t -> Attr.Set.t Subject.Map.t
(** Per-subject encryption/decryption duty over the given attributes:
    which of them each subject encrypts or decrypts somewhere in the
    plan (including the at-rest encryption a base relation's authority
    provisioned). The key-distribution check consults exactly
    [view(holder).plain ⊇ duty]; the dependency analysis
    ([Analysis.Deps]) re-reads the same map to know which plaintext
    facts that consultation touched. *)

val distribution :
  policy:Authorization.t ->
  extended:Extend.t ->
  clusters:Plan_keys.cluster list ->
  paths:(int, string) Hashtbl.t ->
  Diag.t list

val schemes :
  config:Opreq.config ->
  extended:Extend.t ->
  clusters:Plan_keys.cluster list ->
  derived:(int, Authz.Profile.t) Hashtbl.t ->
  paths:(int, string) Hashtbl.t ->
  Diag.t list
