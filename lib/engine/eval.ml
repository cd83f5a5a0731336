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

(* [op] between two cells under [scheme]: [equal ()] and [order ()]
   are what the cells' ciphertexts say *)
let under_scheme op scheme ~equal ~order =
  match (scheme, op) with
  | ("det" | "ope"), (Predicate.Eq | Predicate.Neq) ->
      (* OPE equality is total: cent precision for numeric images, the
         det tail (the exact string) for strings *)
      of_comparison op (if equal () then 0 else 1)
  | "det", _ -> err "deterministic encryption supports only equality"
  | "ope", _ ->
      (* order lives in the 7-byte OPE prefix only; Enc_exec raises
         Crypto_error for tied-prefix strings instead of silently
         ordering them by their det tails *)
      of_comparison op (order ())
  | "rnd", _ -> err "randomized encryption supports no comparison"
  | "phe", _ -> err "homomorphic encryption supports no comparison"
  | s, _ -> err "unknown scheme %s" s

let same_key ~scheme ~key_id ~scheme' ~key_id' =
  if not (String.equal scheme scheme' && String.equal key_id key_id') then
    err "comparison of ciphertexts under different schemes/keys"

let cipher_compare op (a : Value.cipher) (b : Value.cipher) =
  same_key ~scheme:a.Value.scheme ~key_id:a.Value.key_id ~scheme':b.Value.scheme
    ~key_id':b.Value.key_id;
  under_scheme op a.Value.scheme
    ~equal:(fun () ->
      if String.equal a.Value.scheme "ope" then Enc_exec.ope_equal a b
      else String.equal a.Value.payload b.Value.payload)
    ~order:(fun () -> Enc_exec.ope_compare a b)

(* [cipher_compare] of two live sealed cells, with no cipher run *)
let sealed_compare op (a : Column.sealed) i (b : Column.sealed) j =
  same_key ~scheme:a.Column.scheme ~key_id:a.Column.key_id ~scheme':b.Column.scheme
    ~key_id':b.Column.key_id;
  under_scheme op a.Column.scheme
    ~equal:(fun () -> Enc_exec.sealed_equal a i b j)
    ~order:(fun () -> Enc_exec.sealed_order a i b j)

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

(* [f ()], computed at the first call and kept; a race between domains
   computes it twice, which is harmless for a pure [f] *)
let once f =
  let kept = Atomic.make None in
  fun () ->
    match Atomic.get kept with
    | Some x -> x
    | None ->
        let x = f () in
        Atomic.set kept (Some x);
        x

(* [compare_values ?ctx op cell v] for a fixed constant [v]. Against a
   ciphertext cell the constant is encrypted under the cell's cluster;
   the last (scheme, key) it was encrypted under is kept, so a column
   whose cells share one cluster runs the cipher once, not once per
   cell. The encryption is deterministic, so the kept cipher is the one
   a fresh encryption would give. *)
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

(* [compare_values ?ctx op] between the sealed cell [(s, i)] — on the
   left when [left] — and [other], a boxed cell or a constant. A
   plaintext [other] is sealed under the cell's scheme and key, as
   [const_cipher] would encrypt it; a boxed ciphertext can only be
   compared by its bytes, so the sealed cell is materialized. *)
let sealed_vs ?ctx op ~left (s : Column.sealed) i other =
  if Column.is_null s.Column.plain i then false
  else
    match other with
    | Value.Null -> false
    | Value.Enc _ ->
        let cell = Column.get (Column.Sealed s) i in
        if left then compare_values ?ctx op cell other
        else compare_values ?ctx op other cell
    | plain -> (
        match ctx with
        | None -> err "encrypted comparison requires a crypto context"
        | Some c ->
            let k = Enc_exec.const_sealed c s plain in
            if left then sealed_compare op s i k 0 else sealed_compare op k 0 s i)

(* [against] over a sealed column: the constant is sealed once, at the
   first live cell, under the column's scheme and key *)
let against_sealed ?ctx op (s : Column.sealed) v =
  match ctx with
  | Some c when not (Value.is_null v || Value.is_encrypted v) ->
      let k = once (fun () -> Enc_exec.const_sealed c s v) in
      fun i -> (not (Column.is_null s.Column.plain i)) && sealed_compare op s i (k ()) 0
  | _ -> fun i -> sealed_vs ?ctx op ~left:true s i v

let atom ?ctx cell a =
  (* an attribute the input lacks raises only when a row reaches it *)
  let resolve attr = match cell attr with exception e -> Error e | c -> Ok c in
  let get attr =
    match resolve attr with
    | Error e -> fun _ -> raise e
    | Ok (c, ix) -> fun r -> Column.get c (ix r)
  in
  (* a sealed column is compared without producing its bytes *)
  let sealed attr =
    match resolve attr with Ok (Column.Sealed s, ix) -> Some (s, ix) | _ -> None
  in
  (* attribute [x] against the column cell [(cy, iy)], both typed *)
  let unboxed x (cy, iy) =
    match resolve x with
    | Ok (cx, ix) -> Option.map (fun cmp r -> cmp (ix r) (iy r)) (typed_compare cx cy)
    | Error _ -> None
  in
  match a with
  | Predicate.Cmp_const (attr, op, v) -> (
      match (unboxed attr (Column.of_values [| v |], fun _ -> 0), sealed attr) with
      | Some cmp, _ -> fun r -> of_comparison op (cmp r)
      | None, Some (s, ix) ->
          let test = against_sealed ?ctx op s v in
          fun r -> test (ix r)
      | None, None ->
          let g = get attr and test = against ?ctx op v in
          fun r -> test (g r))
  | Predicate.Cmp_attr (x, op, y) -> (
      match
        ( Option.bind (Result.to_option (resolve y)) (unboxed x),
          sealed x,
          sealed y )
      with
      | Some cmp, _, _ -> fun r -> of_comparison op (cmp r)
      | None, Some (sx, ix), Some (sy, iy) ->
          fun r ->
            let i = ix r and j = iy r in
            not (Column.is_null sx.Column.plain i || Column.is_null sy.Column.plain j)
            && sealed_compare op sx i sy j
      | None, Some (sx, ix), None ->
          let gy = get y in
          fun r -> sealed_vs ?ctx op ~left:true sx (ix r) (gy r)
      | None, None, Some (sy, iy) ->
          let gx = get x in
          fun r -> sealed_vs ?ctx op ~left:false sy (iy r) (gx r)
      | None, None, None ->
          let gx = get x and gy = get y in
          fun r -> compare_values ?ctx op (gx r) (gy r))
  | Predicate.In_list (attr, vs) -> (
      match sealed attr with
      | Some (s, ix) ->
          let tests = List.map (against_sealed ?ctx Predicate.Eq s) vs in
          fun r ->
            let i = ix r in
            List.exists (fun test -> test i) tests
      | None ->
          let g = get attr and tests = List.map (against ?ctx Predicate.Eq) vs in
          fun r -> List.exists (fun test -> test (g r)) tests)
  | Predicate.Like (attr, pattern) -> (
      match sealed attr with
      | Some (s, ix) ->
          fun r ->
            if Column.is_null s.Column.plain (ix r) then false
            else err "LIKE requires plaintext"
      | None -> (
          let g = get attr in
          fun r ->
            match g r with
            | Value.Str s -> Predicate.like_matches ~pattern s
            | Value.Null -> false
            | Value.Enc _ -> err "LIKE requires plaintext"
            | v -> err "LIKE over non-string %s" (Value.to_string v)))

let predicate ?ctx cell p =
  let clauses = List.map (List.map (atom ?ctx cell)) p in
  fun r -> List.for_all (List.exists (fun a -> a r)) clauses
