(** Shared scaffolding for deterministic fault plans.

    The distributed simulator's per-subject fault plans
    ({!Distsim.Faults}: crash, transient loss, corruption, slow links)
    follow one contract — a spec parsed from a compact command-line
    string, instantiated with a seeded {!Mpq_crypto.Prng} so the same
    seed and spec reproduce the exact same injected schedule — and
    build on this module: the spec grammar helpers (entry splitting,
    probability and integer-argument parsing, the [Bad_spec] diagnostic
    discipline) and the seeded drawing helpers. *)

exception Bad_spec of string
(** Raised by every spec parser on malformed input, with a message
    naming the offending entry. *)

val bad : ('a, unit, string, 'b) format4 -> 'a
(** [bad fmt ...] raises {!Bad_spec} with a formatted message. *)

val split_entries : string -> string list
(** Split a spec string on [,] and [;], trim each entry, and drop the
    empty ones — the shared outer grammar of every fault spec. *)

val parse_prob : string -> string -> float
(** [parse_prob what s] parses [s] as a probability in [\[0,1\]];
    [what] names the construct in the {!Bad_spec} message. *)

val parse_nonneg_int : string -> string -> int
(** [parse_nonneg_int what s] parses [s] as an int [>= 0]. *)

val parse_keyed :
  what:string -> (entry:string -> string -> 'a) -> string -> (string * 'a) list
(** [parse_keyed ~what parse_fault spec] parses the [KEY:FAULT] entry
    form ({!Distsim.Faults}'s [SUBJECT:FAULT]): splits entries, splits
    each at the first [:], rejects empty keys, and hands the fault body
    (plus the whole entry, for diagnostics) to [parse_fault]. *)

val session_rng : seed:int -> int -> Mpq_crypto.Prng.t
(** [session_rng ~seed index] is the derived generator for entity
    [index] (a session, a subject slot, …) under [seed]. Pure in both
    arguments: the same pair always yields the same stream, regardless
    of how many other entities drew theirs — the determinism contract
    every fault plan in the tree advertises. *)

val draw : Mpq_crypto.Prng.t -> float -> bool
(** [draw rng p] flips a coin of probability [p] (always [false] for
    [p <= 0], always [true] for [p >= 1], consuming randomness either
    way so schedules stay aligned across spec variations). *)
