(** Assignment computation (Sec. 6 step 2 + Sec. 7).

    A bottom-up dynamic program over (node, candidate) pairs: the best
    cost of executing a subtree with its root at a given subject is the
    node's execution cost plus, per child, the cheapest choice of child
    executor including the edge costs — transfer (with ciphertext
    expansion), on-the-fly encryption demanded by the receiving subject's
    view, and decryption demanded by the operation's plaintext needs.
    This combines the paper's steps 2 and 3, as their tool does when
    encryption costs are not negligible.

    The DP's edge model ignores the ancestor-driven early-encryption
    term of Def. 5.4 (it only moves an encryption earlier in the plan);
    the returned assignment is re-costed exactly by
    {!Cost.of_extended} downstream. *)

open Relalg

val optimize :
  candidates:Authz.Candidates.t ->
  policy:Authz.Authorization.t ->
  config:Authz.Opreq.config ->
  pricing:Pricing.t ->
  stats:Estimate.stats Authz.Imap.t ->
  scheme_of:(Attr.t -> Mpq_crypto.Scheme.t) ->
  Plan.t ->
  Authz.Subject.t Authz.Imap.t
(** Minimum-cost assignment drawn from the candidate sets. Raises
    [Invalid_argument] when some assignable node has no candidate.

    Each (node, subject) pair reads the subject's view once
    ({!Authz.Authorization.view}, a lookup into views the policy built
    when it was made). *)

val enumerate : Authz.Candidates.t -> Plan.t -> Authz.Subject.t Authz.Imap.t list
(** Every assignment in [Π Λ(n)] — exponential; for tests and small
    plans only. *)
