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

val row_error : exn -> bool
(** Whether an exception is one the row loop raises at a row: an
    evaluation, crypto, comparison or unknown-attribute error. *)

val select :
  ?ctx:Enc_exec.ctx -> (Attr.t -> Column.t) -> Predicate.t -> int -> int array
(** [select ?ctx column p n] is the rows [0 .. n - 1] where the CNF [p]
    holds, in order, for the table whose columns [column] names: what
    [predicate] keeps, found column by column. Each atom over a typed
    column, or over a det or OPE column with a typed plain column, runs
    as one loop that boxes no cell; atoms over boxed ([Values]) columns
    run [predicate]'s per-row test. Clauses are ANDed and a clause's
    atoms ORed on selection vectors, an atom seeing only the rows still
    undecided, so it reads exactly the cells the row loop would. Where
    the row loop raises, so does [select], with the same error: a kernel
    that raises one of the row loop's errors hands the selection to the
    row loop, which finds the error that comes first in row order (the
    Obs counter [eval.select.replays] counts these hand-overs). Any
    other exception propagates. *)
