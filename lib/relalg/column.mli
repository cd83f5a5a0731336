(** Typed column batches for columnar execution.

    A column holds one attribute's values across a batch of rows. When
    the column is homogeneous and null-free it is stored as an unboxed
    [int]/[float]/[bool]/[string] array, so per-scheme crypto kernels
    and scans iterate without allocating a {!Value.t} per cell; mixed,
    nullable or encrypted columns fall back to a plain [Value.t array].
    Conversions round-trip exactly: [get (of_values vs) i = vs.(i)]. *)

type t =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Strs of string array
  | Dates of int array
  | Values of Value.t array

val length : t -> int

val get : t -> int -> Value.t
(** [get c i] boxes cell [i]. No bounds promises beyond the arrays'. *)

val of_values : Value.t array -> t
(** Sniffs the element type in one pass; homogeneous null-free input
    gets a typed representation, anything else keeps the array as-is. *)

val to_values : t -> Value.t array
(** Boxing conversion; [Values] input is returned without copying (do
    not mutate the result in that case). *)

val sub : t -> int -> int -> t
(** [sub c pos len] — same contract as [Array.sub], except that the
    whole column comes back as is rather than copied (columns are never
    mutated once built). *)

val gather : t -> int array -> t
(** [gather c idx] is the column of cells [c.(idx.(k))], in [idx] order
    and in [c]'s representation (a typed column stays unboxed). *)

val is_unboxed : t -> bool
(** [true] for the typed (non-[Values]) representations. *)
