(** Typed column batches for columnar execution.

    A column holds one attribute's values across a batch of rows. When
    the column is homogeneous and null-free it is stored as an unboxed
    [int]/[float]/[bool]/[string] array, so per-scheme crypto kernels
    and scans iterate without allocating a {!Value.t} per cell; mixed,
    nullable or encrypted columns fall back to a plain [Value.t array].
    Conversions round-trip exactly: [get (of_values vs) i = vs.(i)].

    A [Sealed] column is a det, OPE or rnd ciphertext column whose
    bytes have not been computed yet. It keeps the scheme, the
    plaintext column, one word per row (an rnd cell's already-drawn IV,
    an OPE cell's order image) and the key cluster that will encrypt
    it; a cell's ciphertext is produced only when {!get} (or
    {!to_values}, which calls it) reads that cell. The bytes are the
    ones eager encryption would have produced, so no reader can tell
    the two apart. Readers that need only null-ness or encryptedness
    ({!is_null}, {!is_encrypted}, {!length}) and the row movers
    ({!sub}, {!gather}) never produce them; operators that compare det
    or OPE cells read the plaintext and the words instead (see
    [Engine.Enc_exec]). *)

type t =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Strs of string array
  | Dates of int array
  | Values of Value.t array
  | Sealed of sealed

and sealed = {
  scheme : string;  (** ["det"], ["ope"] or ["rnd"]: the cells' cipher scheme *)
  plain : t;  (** the plaintext cells; a Null cell stays Null *)
  words : Bytes.t;
      (** row [i]'s word, little-endian at bytes [8i .. 8i+7] (unboxed,
          so a sealed column holds no pointer per cell): the IV of an
          rnd cell, the cent/prefix image of an OPE cell; unused at Null
          rows, and empty for det *)
  key_id : string;  (** the key cluster the cells encrypt under *)
  seal : Value.t array -> int64 array -> string array;
      (** [seal vs ws] is the payloads of the live plaintexts [vs],
          whose words are [ws]; pure, and safe to call from any domain.
          A batch, so a column materializes in one call. *)
}

val length : t -> int

val get : t -> int -> Value.t
(** [get c i] boxes cell [i]. No bounds promises beyond the arrays'. A
    sealed cell comes back as [Value.Enc] under the column's scheme and
    key (its payload computed now), or as [Null]. *)

val is_null : t -> int -> bool
(** [is_null c i] is [Value.is_null (get c i)], without boxing the cell
    or producing a sealed cell's bytes. *)

val word : sealed -> int -> int64
(** [word s i] is row [i]'s word ([0L] when the column keeps none). *)

val is_encrypted : t -> int -> bool
(** [is_encrypted c i] is [Value.is_encrypted (get c i)], on the same
    terms as {!is_null}. *)

val of_values : Value.t array -> t
(** Sniffs the element type in one pass; homogeneous null-free input
    gets a typed representation, anything else keeps the array as-is.
    Never builds a [Sealed] column. *)

val to_values : t -> Value.t array
(** Boxing conversion; [Values] input is returned without copying (do
    not mutate the result in that case). A sealed column's live cells
    are encrypted here, in one [seal] call. *)

val sub : t -> int -> int -> t
(** [sub c pos len] — same contract as [Array.sub], except that the
    whole column comes back as is rather than copied (columns are never
    mutated once built). *)

val gather : t -> int array -> t
(** [gather c idx] is the column of cells [c.(idx.(k))], in [idx] order
    and in [c]'s representation (a typed column stays unboxed, a sealed
    one stays sealed and keeps only the gathered rows' words). *)

val is_unboxed : t -> bool
(** [true] for the typed representations; [false] for [Values] and
    [Sealed]. *)
