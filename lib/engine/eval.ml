open Relalg

exception Eval_error of string

let err fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

let of_comparison op c =
  match op with
  | Predicate.Eq -> c = 0
  | Predicate.Neq -> c <> 0
  | Predicate.Lt -> c < 0
  | Predicate.Le -> c <= 0
  | Predicate.Gt -> c > 0
  | Predicate.Ge -> c >= 0

let cipher_compare op (a : Value.cipher) (b : Value.cipher) =
  if
    not
      (String.equal a.Value.scheme b.Value.scheme
      && String.equal a.Value.key_id b.Value.key_id)
  then
    err "comparison of ciphertexts under different schemes/keys"
  else
    match (a.Value.scheme, op) with
    | "det", (Predicate.Eq | Predicate.Neq) ->
        of_comparison op (String.compare a.Value.payload b.Value.payload)
    | "det", _ -> err "deterministic encryption supports only equality"
    | "ope", (Predicate.Eq | Predicate.Neq) ->
        (* total equality: cent-precision for numeric images, det-tail
           (exact string) equality for strings *)
        of_comparison op (if Enc_exec.ope_equal a b then 0 else 1)
    | "ope", _ ->
        (* order lives in the 7-byte OPE prefix only; Enc_exec raises
           Crypto_error for tied-prefix strings instead of silently
           ordering them by their det tails *)
        of_comparison op (Enc_exec.ope_compare a b)
    | "rnd", _ -> err "randomized encryption supports no comparison"
    | "phe", _ -> err "homomorphic encryption supports no comparison"
    | s, _ -> err "unknown scheme %s" s

let rec compare_values ?ctx op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> false
  | Value.Enc ca, Value.Enc cb -> cipher_compare op ca cb
  | Value.Enc ca, plain -> (
      match ctx with
      | Some c -> compare_values ~ctx:c op a (Enc_exec.const_cipher c ca plain)
      | None -> err "encrypted comparison requires a crypto context")
  | plain, Value.Enc cb -> (
      match ctx with
      | Some c ->
          compare_values ~ctx:c op (Enc_exec.const_cipher c cb plain) b
      | None ->
          ignore plain;
          err "encrypted comparison requires a crypto context")
  | a, b -> (
      match op with
      | Predicate.Eq -> Value.equal a b
      | Predicate.Neq -> not (Value.equal a b)
      | _ -> (
          try of_comparison op (Value.compare a b)
          with Value.Incomparable _ ->
            err "incomparable values %s / %s" (Value.to_string a)
              (Value.to_string b)))

(* Typed cells compare unboxed, with the comparison [compare_values]
   would make: a typed column holds no Null and no ciphertext, and
   [Value.equal] agrees with the zero of [Value.compare] on every pair
   of kinds below. *)
let typed_compare (x : Column.t) (y : Column.t) =
  match (x, y) with
  | Column.Ints a, Column.Ints b | Column.Dates a, Column.Dates b ->
      Some (fun i j -> Int.compare a.(i) b.(j))
  | Column.Floats a, Column.Floats b -> Some (fun i j -> Float.compare a.(i) b.(j))
  | Column.Ints a, Column.Floats b ->
      Some (fun i j -> Float.compare (float_of_int a.(i)) b.(j))
  | Column.Floats a, Column.Ints b ->
      Some (fun i j -> Float.compare a.(i) (float_of_int b.(j)))
  | Column.Strs a, Column.Strs b -> Some (fun i j -> String.compare a.(i) b.(j))
  | _ -> None

(* [compare_values ?ctx op cell v] for a fixed constant [v]. Against a
   ciphertext cell the constant is encrypted under the cell's cluster;
   the last (scheme, key) it was encrypted under is kept, so a column
   whose cells share one cluster asks the key's locked memo once, not
   once per cell. The encryption is deterministic, so the kept cipher
   is the one the memo would return. *)
let against ?ctx op v =
  match ctx with
  | Some c when not (Value.is_null v || Value.is_encrypted v) ->
      let last = Atomic.make None in
      let encrypted (ca : Value.cipher) =
        match Atomic.get last with
        | Some (scheme, key_id, e)
          when String.equal scheme ca.Value.scheme && String.equal key_id ca.Value.key_id ->
            e
        | _ ->
            let e = Enc_exec.const_cipher c ca v in
            Atomic.set last (Some (ca.Value.scheme, ca.Value.key_id, e));
            e
      in
      fun cell -> (
        match cell with
        | Value.Enc ca -> compare_values ~ctx:c op cell (encrypted ca)
        | _ -> compare_values ~ctx:c op cell v)
  | _ -> fun cell -> compare_values ?ctx op cell v

let atom ?ctx cell a =
  (* an attribute the input lacks raises only when a row reaches it *)
  let resolve attr = match cell attr with exception e -> Error e | c -> Ok c in
  let get attr =
    match resolve attr with
    | Error e -> fun _ -> raise e
    | Ok (c, ix) -> fun r -> Column.get c (ix r)
  in
  (* attribute [x] against the column cell [(cy, iy)], both typed *)
  let unboxed x (cy, iy) =
    match resolve x with
    | Ok (cx, ix) -> Option.map (fun cmp r -> cmp (ix r) (iy r)) (typed_compare cx cy)
    | Error _ -> None
  in
  match a with
  | Predicate.Cmp_const (attr, op, v) -> (
      match unboxed attr (Column.of_values [| v |], fun _ -> 0) with
      | Some cmp -> fun r -> of_comparison op (cmp r)
      | None ->
          let g = get attr and test = against ?ctx op v in
          fun r -> test (g r))
  | Predicate.Cmp_attr (x, op, y) -> (
      match Option.bind (Result.to_option (resolve y)) (unboxed x) with
      | Some cmp -> fun r -> of_comparison op (cmp r)
      | None ->
          let gx = get x and gy = get y in
          fun r -> compare_values ?ctx op (gx r) (gy r))
  | Predicate.In_list (attr, vs) ->
      let g = get attr and tests = List.map (against ?ctx Predicate.Eq) vs in
      fun r -> List.exists (fun test -> test (g r)) tests
  | Predicate.Like (attr, pattern) -> (
      let g = get attr in
      fun r ->
        match g r with
        | Value.Str s -> Predicate.like_matches ~pattern s
        | Value.Null -> false
        | Value.Enc _ -> err "LIKE requires plaintext"
        | v -> err "LIKE over non-string %s" (Value.to_string v))

let predicate ?ctx cell p =
  let clauses = List.map (List.map (atom ?ctx cell)) p in
  fun r -> List.for_all (List.exists (fun a -> a r)) clauses
