(** Assignment computation (Sec. 6 step 2 + Sec. 7).

    One exact search over the extensions themselves, combining the
    paper's steps 2 and 3 as their tool does when encryption costs are
    not negligible, and pricing every plan with {!Cost.part} under the
    schemes that plan actually needs: there is no second cost model.

    A subtree's extension depends only on the assignment of its own
    nodes and on two inputs from above: the encrypted view of its
    parent's executor and the union of the encrypted views of every
    executor above it (Def. 5.4's ancestor term), both cut to the
    subtree's attributes ({!Authz.Extend.inputs}). The search visits
    each subtree once per such pair of inputs and builds its options
    bottom-up with {!Authz.Extend.step}: per candidate executor, every
    combination of its children's options.

    Schemes are chosen per equivalence class of the query's attributes
    (Def. 6.1's clusters), by the paper's rule over the computations the
    finished plan runs on the class's ciphertext. An option claims a
    scheme for each class its subtree encrypts, decrypts or computes on
    encrypted, with the capabilities computed so far; it is priced under
    its claims, and combines only with options claiming the same schemes.
    A claim that no later step could make the rule's choice is dropped,
    and a class no later step touches must already be the rule's choice:
    every finished plan is priced under its actual schemes.

    Of the options that look the same from above — the same executor,
    visible attributes, statistics and claims at the subtree's top —
    only the cheapest is kept; under a latency bound, every option no
    other is both cheaper and faster than. That loses nothing: the rest
    of the plan reads an option only through those, and a subtree's cost
    and completion time are monotone in its children's. A candidate
    holding the same view as a cheaper one of the same role is dropped,
    as swapping it for that one never costs more.

    Without a latency bound the search runs once, bounded by the cost of
    one real plan: each node assigned the candidate reaching its lower
    bound, each class under the rule's choice for what that plan
    computes on it. A node's lower bound is its relational work over
    plaintext, the transfers its candidate certainly receives, and the
    encryptions its demands imply: an attribute read from a base
    relation that the candidate may not see in plaintext was encrypted
    on its way up under a scheme supporting the demand, each counted
    once. An option whose subtree, plus a lower bound on the nodes
    outside it (their work and certain transfers), exceeds the bound is
    pruned; that outside bound rises when an open claim forces a later
    node to a candidate seeing the attribute in plaintext. The bounding
    plan always fits, so the plan found is the cheapest of all. *)

open Relalg

type pick = {
  assignment : Authz.Subject.t Authz.Imap.t;
      (** by original node id, every assignable node *)
  extended : Authz.Extend.t;  (** its extension, delivered *)
  cost : Cost.breakdown;  (** under its actual schemes *)
  lower_bound : float;
      (** no assignment costs less: per node, its cheapest candidate's
          work, the transfers that candidate certainly receives and the
          encryptions counted at the node *)
}

val optimize :
  candidates:Authz.Candidates.t ->
  policy:Authz.Authorization.t ->
  builder:Authz.Extend.builder ->
  pricing:Pricing.t ->
  network:Network.t ->
  base:Estimate.base_stats ->
  conservative:(Attr.t -> Mpq_crypto.Scheme.t) ->
  ?max_latency:float ->
  unit ->
  pick
(** The best assignment drawn from the candidate sets: the cheapest,
    or under [max_latency] the cheapest whose latency meets the bound
    (when none does, the fastest), each plan priced under its own actual
    schemes ({!Authz.Plan_keys.actual_schemes}). [conservative] is
    {!Authz.Opreq.schemes}: an actual scheme is the rule's choice for
    some of the capabilities the conservative one supports. [cost]
    equals {!Cost.of_extended} of {!Authz.Extend.extend} of
    [assignment] under its actual schemes, float for float, and no
    assignment in [Π Λ(n)] costs less. Raises [Invalid_argument] when
    some assignable node has no candidate. *)

val enumerate : Authz.Candidates.t -> Plan.t -> Authz.Subject.t Authz.Imap.t list
(** Every assignment in [Π Λ(n)] — exponential; for tests and small
    plans only. *)
