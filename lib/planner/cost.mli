(** Economic cost model (Sec. 7).

    [C_q = Σ_n C_cpu + C_io + C_net_io]: per node, CPU time × the
    executor's per-minute price, locally processed volume × the I/O
    price, and — on every edge whose endpoints have different executors —
    transferred volume × the sender's egress price. Encryption and
    decryption operators are charged CPU by scheme (Paillier orders of
    magnitude above symmetric schemes) and change transferred volumes
    through ciphertext expansion. *)

open Relalg

type breakdown = {
  cpu : float;
  io : float;
  net : float;
  seconds : float;  (** total work time (CPU + transfer, summed) *)
  latency : float;
      (** critical-path completion time: parallel branches overlap,
          transfers on the slow client link dominate — the quantity the
          paper's performance threshold bounds (Sec. 7) *)
  per_subject : (Authz.Subject.t * float) list;  (** USD by participant *)
}

val total : breakdown -> float

val cpu_minutes :
  scheme_of:(Attr.t -> Mpq_crypto.Scheme.t) ->
  node:Plan.t ->
  child_stats:Estimate.stats list ->
  out_stats:Estimate.stats ->
  float
(** CPU minutes to execute one node (crypto operators are charged by
    volume and scheme; udfs at 100× the relational per-tuple cost). *)

val coster :
  pricing:Pricing.t ->
  network:Network.t ->
  base:Estimate.base_stats ->
  scheme_of:(Attr.t -> Mpq_crypto.Scheme.t) ->
  Authz.Extend.t ->
  breakdown
(** Staged {!of_extended}: [coster ~pricing ~network ~base] keeps, per
    extended node, the statistics, charges and completion time it
    computed, keyed by the node (its id) and the schemes of the
    attributes its subtree encrypts or decrypts. Costing another
    extension that holds the node, under the same schemes for those
    attributes, reads them back instead of recomputing the subtree.
    Charges are summed in preorder, each node's own before its
    transfers, so every float matches a from-scratch costing.

    Sound only for extensions whose nodes keep one executor each, as
    the extensions of one {!Authz.Extend.extender} do. Not safe to share
    between domains. *)

val of_extended :
  pricing:Pricing.t ->
  network:Network.t ->
  base:Estimate.base_stats ->
  scheme_of:(Attr.t -> Mpq_crypto.Scheme.t) ->
  Authz.Extend.t ->
  breakdown
(** Exact cost of a minimally extended plan under a given assignment:
    a fresh {!coster} applied once. *)

val pp : Format.formatter -> breakdown -> unit
