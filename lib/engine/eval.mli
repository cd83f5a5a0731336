(** Predicate evaluation over columns, including over ciphertext.

    Comparisons between two ciphertexts require the same scheme and key
    cluster: deterministic encryption supports (in)equality, OPE supports
    ordering. A comparison between a ciphertext and a plaintext constant
    encrypts the constant on the fly under the ciphertext's cluster —
    modelling dispatched conditions "formulated on encrypted values"
    (Sec. 5) — and therefore needs a crypto context. SQL three-valued
    logic is approximated: any comparison involving [Null] is false. *)

open Relalg

exception Eval_error of string

val compare_values :
  ?ctx:Enc_exec.ctx -> Predicate.op -> Value.t -> Value.t -> bool

val predicate :
  ?ctx:Enc_exec.ctx ->
  (Attr.t -> Column.t * ('r -> int)) ->
  Predicate.t ->
  'r ->
  bool
(** [predicate ?ctx cell p] compiles the CNF [p] (every clause must
    have a true atom) into a test on a row cursor ['r]: [cell a] names
    the column holding attribute [a] and the row of it a cursor reads.
    Atoms are tried in order with the same short-circuits as a row
    loop, and an exception from [cell] surfaces only when a row reaches
    the atom that needed it. The result is safe to share across
    domains. *)
