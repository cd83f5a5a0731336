(** Price lists (Sec. 7).

    Query cost is [C_q = Σ_n C_cpu + C_io + C_net_io], in USD: CPU time ×
    price per minute, local I/O volume × price per GB, transmitted volume
    × price per GB. Defaults follow the paper's calibration: provider
    prices modelled on public cloud listings, data authorities at 3× and
    the user at 10× the provider CPU price (government-backed price lists
    vs. the open market). Individual providers can carry multipliers —
    the savings of Figs. 9-10 come from delegating to cheap providers. *)

type rates = {
  cpu_per_min : float;  (** USD per CPU-minute *)
  io_per_gb : float;  (** USD per GB read/written locally *)
  net_out_per_gb : float;  (** USD per GB sent *)
}

type t

val make :
  ?provider_multipliers:(string * float) list ->
  ?authority_factor:float ->
  ?user_factor:float ->
  unit ->
  t
(** [authority_factor] (default 3.0) and [user_factor] (default 10.0)
    scale the CPU price; multipliers scale a named provider's whole rate
    card (default 1.0). *)

val rates_for : t -> Authz.Subject.t -> rates

val fingerprint : t -> string
(** Canonical collision-free serialization (see {!Fingerprint}):
    factors bit-exact, multipliers sorted by provider name. Part of the
    plan-cache key — any price change rotates it. *)
