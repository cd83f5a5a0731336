(** Typed column batches for columnar execution.

    A column holds one attribute's values across a batch of rows. When
    the column is homogeneous and null-free it is stored as an unboxed
    [int]/[float]/[bool]/[string] array, so per-scheme crypto kernels
    and scans iterate without allocating a {!Value.t} per cell; mixed,
    nullable or encrypted columns fall back to a plain [Value.t array].
    Conversions round-trip exactly: [get (of_values vs) i = vs.(i)].

    A [Sealed] column is a randomized (rnd) ciphertext column whose
    bytes have not been computed yet. It keeps the plaintext column,
    each row's already-drawn IV and the key that will encrypt it; a
    cell's ciphertext is produced only when {!get} (or {!to_values},
    which calls it) reads that cell. The bytes are the ones eager
    encryption would have produced, so no reader can tell the two apart.
    Readers that need only null-ness or encryptedness ({!is_null},
    {!is_encrypted}, {!length}) and the row movers ({!sub}, {!gather})
    never produce them. *)

type t =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Strs of string array
  | Dates of int array
  | Values of Value.t array
  | Sealed of sealed

and sealed = {
  plain : t;  (** the plaintext cells; a Null cell stays Null *)
  ivs : Bytes.t;
      (** row [i]'s IV, little-endian at bytes [8i .. 8i+7] (unboxed, so
          a sealed column holds no pointer per cell); unused at Null
          rows *)
  key_id : string;  (** the key cluster the cells encrypt under *)
  seal : Value.t -> int64 -> string;
      (** [seal v iv] is the rnd payload of plaintext [v] under [iv];
          pure, and safe to call from any domain *)
}

val length : t -> int

val get : t -> int -> Value.t
(** [get c i] boxes cell [i]. No bounds promises beyond the arrays'. A
    sealed cell comes back as [Value.Enc] with scheme ["rnd"] (its
    payload computed now), or as [Null]. *)

val is_null : t -> int -> bool
(** [is_null c i] is [Value.is_null (get c i)], without boxing the cell
    or producing a sealed cell's bytes. *)

val is_encrypted : t -> int -> bool
(** [is_encrypted c i] is [Value.is_encrypted (get c i)], on the same
    terms as {!is_null}. *)

val of_values : Value.t array -> t
(** Sniffs the element type in one pass; homogeneous null-free input
    gets a typed representation, anything else keeps the array as-is.
    Never builds a [Sealed] column. *)

val to_values : t -> Value.t array
(** Boxing conversion; [Values] input is returned without copying (do
    not mutate the result in that case). A sealed column's cells are
    encrypted here. *)

val sub : t -> int -> int -> t
(** [sub c pos len] — same contract as [Array.sub], except that the
    whole column comes back as is rather than copied (columns are never
    mutated once built). *)

val gather : t -> int array -> t
(** [gather c idx] is the column of cells [c.(idx.(k))], in [idx] order
    and in [c]'s representation (a typed column stays unboxed, a sealed
    one stays sealed and keeps only the gathered rows' IVs). *)

val is_unboxed : t -> bool
(** [true] for the typed representations; [false] for [Values] and
    [Sealed]. *)
