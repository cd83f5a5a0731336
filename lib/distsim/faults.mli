(** Deterministic fault injection for the distributed simulator.

    A fault plan assigns failure behaviours to subjects — crash from a
    given interaction step on, transient message loss, payload
    corruption, slow responses — and owns a simulated clock (ms) plus a
    monotone step counter. All randomness is drawn from a seeded
    {!Mpq_crypto.Prng}, so the same seed and spec reproduce the exact
    same sequence of faults, which [Runtime] turns into a byte-identical
    trace. The runtime consults the plan once per network interaction
    ({!interact}); everything local to a subject (release checks, key
    checks, fragment evaluation) is fault-free by construction — the
    model degrades availability, never integrity of the authorization
    checks. *)

type fault =
  | Crash_at of int
      (** Subject permanently down from interaction step [k] on
          ([0] = down from the start); it never answers again. *)
  | Transient of float  (** Drop a message involving the subject with
                            this probability. *)
  | Corrupt of float  (** Corrupt the payload in transit with this
                          probability; detection (MAC / checksum) is
                          the receiver's job. *)
  | Slow of { delay_ms : int; prob : float }
      (** Add [delay_ms] simulated latency with probability [prob];
          the runtime compares total latency to its per-request
          timeout. *)

type spec = (string * fault) list
(** Per-subject fault assignments; a subject may appear several
    times. *)

exception Bad_spec of string

val parse : string -> spec
(** Parse a command-line fault spec. Entries are separated by [,] or
    [;]; each entry is [SUBJECT:FAULT] with [FAULT] one of
    [crash@K], [transient=P], [corrupt=P], [slow=MS] or [slow=MS@P].
    Example: ["X:crash@4,Y:transient=0.2,Z:slow=1500@0.5"]. Raises
    {!Bad_spec} on malformed input. *)

val render : spec -> string
(** Inverse of {!parse} (canonical form). *)

type t
(** An instantiated fault plan: spec + PRNG + simulated clock. One
    plan drives one execution (including its retries and failover
    re-plans); make a fresh plan per run. *)

val make : ?seed:int -> spec -> t
(** A fault-free interaction takes 5 ms on the simulated clock. *)

val none : unit -> t
(** The empty plan: every interaction is delivered at base latency. *)

val clock_ms : t -> int
(** Simulated time elapsed so far. *)

val advance : t -> int -> unit
(** Advance the simulated clock (used by the runtime for waits on
    timeouts and retry backoff). *)

val step : t -> int
(** Interactions consulted so far ({!interact} increments it). *)

val jitter : t -> int -> int
(** [jitter t bound] draws a deterministic uniform int in
    [\[0, bound)] ([0] when [bound <= 0]) — retry-backoff jitter. *)

type verdict =
  | Delivered
  | Dropped of string  (** transient loss, blamed subject *)
  | Corrupted of string  (** payload corrupted in transit *)
  | No_response of string  (** subject has crashed *)

type disposition = {
  verdict : verdict;
  latency_ms : int;  (** base latency + triggered slow delays *)
  slow_by : string option;  (** subject whose slow fault fired, if any *)
}

val interact : t -> string list -> disposition
(** [interact t participants] advances the step counter and rolls the
    fate of one message exchange among [participants] (named
    subjects): a crashed participant yields [No_response] without
    consuming randomness; otherwise every probabilistic fault of every
    participant is drawn in spec order (so the draw sequence — hence
    determinism — depends only on the spec and the call sequence). *)
