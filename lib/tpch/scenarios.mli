(** Authorization scenarios of the paper's evaluation (Sec. 7).

    - [UA]: base relations visible only to the querying user (plus each
      authority's own relation) — all cross-authority work lands on the
      expensive user.
    - [UAPenc]: additionally, every cloud provider may access every
      attribute of every relation in encrypted form.
    - [UAPmix]: as [UAPenc], but half of each relation's attributes
      become plaintext-visible to providers.

    Subjects: user [U], authorities [A1]/[A2] (3× provider CPU price),
    and three providers [P1]/[P2]/[P3] with heterogeneous price
    multipliers (the open-market diversity the savings come from). *)

type t = UA | UAPenc | UAPmix

val all : t list
val name : t -> string

val user : Authz.Subject.t
val providers : Authz.Subject.t list
val subjects : Authz.Subject.t list

val policy : t -> Authz.Authorization.t
val pricing : Planner.Pricing.t

val optimize :
  ?sf:float ->
  ?fold_leaf_filters:bool ->
  scenario:t ->
  Relalg.Plan.t ->
  Planner.Optimizer.result
(** Run the authorization-aware optimizer on a query under a scenario,
    with TPC-H base statistics at scale [sf] (default 1.0, the paper's
    1 GB configuration) and results delivered to the user.

    [fold_leaf_filters] (default [true]) maps constant filters sitting
    on base relations into the leaf boxes, as the PostgreSQL plans the
    paper consumes do (see {!Planner.Leaf_filters}); pass [false] to
    keep them as explicit, delegable — but implicit-trace-leaving —
    selection nodes. *)
