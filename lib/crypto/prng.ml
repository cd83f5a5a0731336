type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = seed }
let copy t = { state = t.state }

(* inlined, so the Int64 arithmetic of a caller like [draw_into] stays
   unboxed *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's int without sign overflow *)
  let x = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  x mod bound

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next64 t) 1L = 1L

let bytes t n =
  String.init n (fun _ -> Char.chr (Int64.to_int (Int64.logand (next64 t) 255L)))

let split t = create (next64 t)

(* Pure: the child at index [i] is a function of the parent's current
   state only — the parent is not advanced, and children at distinct
   indices are decorrelated by the SplitMix64 finalizer. The executor
   uses this to give every row a private stream whose output is
   independent of evaluation order. *)
let[@inline] derived_state t i =
  mix (Int64.add t.state (Int64.mul golden (Int64.of_int (i + 1))))

let derive t i = create (derived_state t i)

(* [derive t row]'s [draw]-th [next64] is [mix] of its state plus
   [draw * golden], computed with no generator record and no boxed
   Int64. *)
let draw_into t ~row ~draw b off =
  let s = derived_state t row in
  Bytes.set_int64_le b off (mix (Int64.add s (Int64.mul golden (Int64.of_int draw))))
