(* Typed column batches. A column stores a whole attribute's values for
   a batch of rows; homogeneous non-null columns use unboxed int / float
   / string arrays so per-scheme crypto kernels and scans run without
   boxing a Value per cell, while mixed, nullable or encrypted columns
   fall back to a plain Value array (zero-copy in both directions). A
   sealed column is det, OPE or rnd ciphertext whose bytes are produced
   only when a cell is read. *)

type t =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Strs of string array
  | Dates of int array
  | Values of Value.t array
  | Sealed of sealed

and sealed = {
  scheme : string;
  plain : t;
  words : Bytes.t;
  key_id : string;
  seal : Value.t array -> int64 array -> string array;
}

let word s i =
  if Bytes.length s.words = 0 then 0L else Bytes.get_int64_le s.words (8 * i)

let rec length = function
  | Ints a | Dates a -> Array.length a
  | Floats a -> Array.length a
  | Bools a -> Array.length a
  | Strs a -> Array.length a
  | Values a -> Array.length a
  | Sealed s -> length s.plain

let enc s payload = Value.Enc { Value.scheme = s.scheme; key_id = s.key_id; payload }

let rec get c i =
  match c with
  | Ints a -> Value.Int a.(i)
  | Floats a -> Value.Float a.(i)
  | Bools a -> Value.Bool a.(i)
  | Strs a -> Value.Str a.(i)
  | Dates a -> Value.Date a.(i)
  | Values a -> a.(i)
  | Sealed s -> (
      match get s.plain i with
      | Value.Null -> Value.Null
      | v -> enc s (s.seal [| v |] [| word s i |]).(0))

let rec is_null c i =
  match c with
  | Ints _ | Floats _ | Bools _ | Strs _ | Dates _ -> false
  | Values a -> Value.is_null a.(i)
  | Sealed s -> is_null s.plain i

let is_encrypted c i =
  match c with
  | Ints _ | Floats _ | Bools _ | Strs _ | Dates _ -> false
  | Values a -> Value.is_encrypted a.(i)
  | Sealed s -> not (is_null s.plain i)

(* One type-sniffing pass; the typed representations are only used when
   the whole column is homogeneous and null-free, so [get] needs no null
   mask. The mixed fallback keeps the argument array itself. *)
let of_values (vs : Value.t array) =
  let n = Array.length vs in
  if n = 0 then Values vs
  else
    let uniform = ref true in
    let tag v =
      match v with
      | Value.Int _ -> 1
      | Value.Float _ -> 2
      | Value.Bool _ -> 3
      | Value.Str _ -> 4
      | Value.Date _ -> 5
      | Value.Null | Value.Enc _ -> 0
    in
    let t0 = tag vs.(0) in
    if t0 = 0 then Values vs
    else begin
      (try
         for i = 1 to n - 1 do
           if tag vs.(i) <> t0 then begin
             uniform := false;
             raise Exit
           end
         done
       with Exit -> ());
      if not !uniform then Values vs
      else
        match t0 with
        | 1 ->
            Ints
              (Array.map
                 (function Value.Int i -> i | _ -> assert false)
                 vs)
        | 2 ->
            Floats
              (Array.map
                 (function Value.Float f -> f | _ -> assert false)
                 vs)
        | 3 ->
            Bools
              (Array.map
                 (function Value.Bool b -> b | _ -> assert false)
                 vs)
        | 4 ->
            Strs
              (Array.map
                 (function Value.Str s -> s | _ -> assert false)
                 vs)
        | _ ->
            Dates
              (Array.map
                 (function Value.Date d -> d | _ -> assert false)
                 vs)
    end

(* a sealed column's live cells are sealed in one call *)
let to_values = function
  | Values a -> a
  | Sealed s ->
      let cells = Array.init (length s.plain) (get s.plain) in
      let live = ref [] in
      for i = Array.length cells - 1 downto 0 do
        if not (Value.is_null cells.(i)) then live := i :: !live
      done;
      let live = Array.of_list !live in
      let payloads =
        s.seal (Array.map (fun i -> cells.(i)) live) (Array.map (word s) live)
      in
      Array.iteri (fun k i -> cells.(i) <- enc s payloads.(k)) live;
      cells
  | c -> Array.init (length c) (get c)

let rec sub c pos len =
  if pos = 0 && len = length c then c
  else
    match c with
    | Ints a -> Ints (Array.sub a pos len)
    | Floats a -> Floats (Array.sub a pos len)
    | Bools a -> Bools (Array.sub a pos len)
    | Strs a -> Strs (Array.sub a pos len)
    | Dates a -> Dates (Array.sub a pos len)
    | Values a -> Values (Array.sub a pos len)
    | Sealed s ->
        let words =
          if Bytes.length s.words = 0 then s.words
          else Bytes.sub s.words (8 * pos) (8 * len)
        in
        Sealed { s with plain = sub s.plain pos len; words }

(* Floats gather through a loop into a flat float array, so no cell is
   boxed on the way. A sealed column keeps only the gathered rows'
   words. *)
let rec gather c idx =
  let n = Array.length idx in
  let pick a = Array.map (fun i -> a.(i)) idx in
  (* ints and booleans are stored with no write barrier *)
  let ints (a : int array) =
    let out = Array.make n 0 in
    for k = 0 to n - 1 do
      Array.unsafe_set out k a.(Array.unsafe_get idx k)
    done;
    out
  in
  match c with
  | Ints a -> Ints (ints a)
  | Floats a ->
      let out = Array.create_float n in
      for k = 0 to n - 1 do
        Array.unsafe_set out k a.(Array.unsafe_get idx k)
      done;
      Floats out
  | Bools a ->
      let out = Array.make n false in
      for k = 0 to n - 1 do
        Array.unsafe_set out k a.(Array.unsafe_get idx k)
      done;
      Bools out
  | Strs a -> Strs (pick a)
  | Dates a -> Dates (ints a)
  | Values a -> Values (pick a)
  | Sealed s ->
      let words =
        if Bytes.length s.words = 0 then s.words
        else begin
          let w = Bytes.create (8 * Array.length idx) in
          Array.iteri (fun k i -> Bytes.set_int64_le w (8 * k) (word s i)) idx;
          w
        end
      in
      Sealed { s with plain = gather s.plain idx; words }

let is_unboxed = function
  | Ints _ | Floats _ | Bools _ | Strs _ | Dates _ -> true
  | Values _ | Sealed _ -> false
