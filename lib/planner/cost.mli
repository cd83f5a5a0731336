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
  usd : float;
      (** the plan's total, summed per subtree: a node's own charge,
          then its transfers, then its children's subtree sums in child
          order. A subtree's sum is a function of the subtree alone and
          is monotone in each child's, so a search that keeps the
          cheapest subtree per interface is exact. [cpu], [io] and
          [net] are summed in preorder and add up to [usd] within
          rounding. *)
}

val total : breakdown -> float
(** [usd]. *)

val cpu_minutes :
  scheme_of:(Attr.t -> Mpq_crypto.Scheme.t) ->
  node:Plan.t ->
  child_stats:Estimate.stats list ->
  out_stats:Estimate.stats ->
  float
(** CPU minutes to execute one node (crypto operators are charged by
    volume and scheme; udfs at 100× the relational per-tuple cost). *)

type part
(** One extended node's share of a costing: its subtree's statistics,
    charges, sum and completion time. *)

val part_usd : part -> float
(** The subtree's sum, as {!breakdown.usd} reads it at the root. *)

val part_finish : part -> float
(** The subtree's critical-path completion time. *)

val part_stats : part -> Estimate.stats
(** The subtree root's output statistics. *)

val part :
  pricing:Pricing.t ->
  network:Network.t ->
  base:Estimate.base_stats ->
  scheme_of:(Attr.t -> Mpq_crypto.Scheme.t) ->
  Authz.Subject.t ->
  Plan.t ->
  part list ->
  part
(** [part ~pricing ~network ~base ~scheme_of s n below] prices one node
    of an extended plan: [n] executed by [s], over its children's parts
    in child order. {!of_extended} prices every node this way. *)

val breakdown : part -> breakdown
(** The breakdown of a plan whose root has this part. *)

val of_extended :
  pricing:Pricing.t ->
  network:Network.t ->
  base:Estimate.base_stats ->
  scheme_of:(Attr.t -> Mpq_crypto.Scheme.t) ->
  Authz.Extend.t ->
  breakdown
(** Exact cost of a minimally extended plan under a given assignment:
    {!part} over every node, bottom-up, then {!breakdown}. [cpu], [io],
    [net], [seconds] and [per_subject] are summed in preorder, each
    node's own charge before its transfers. *)

val pp : Format.formatter -> breakdown -> unit
