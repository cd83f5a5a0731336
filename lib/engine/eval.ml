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
  | Column.Bools a, Column.Bools b -> Some (fun i j -> Bool.compare a.(i) b.(j))
  | _ -> None

(* [typed_compare] against the one-cell column of the constant [v] *)
let typed_const (x : Column.t) v =
  match (x, v) with
  | Column.Ints a, Value.Int c | Column.Dates a, Value.Date c ->
      Some (fun i -> Int.compare a.(i) c)
  | Column.Floats a, Value.Float c -> Some (fun i -> Float.compare a.(i) c)
  | Column.Ints a, Value.Float c -> Some (fun i -> Float.compare (float_of_int a.(i)) c)
  | Column.Floats a, Value.Int c ->
      let c = float_of_int c in
      Some (fun i -> Float.compare a.(i) c)
  | Column.Strs a, Value.Str c -> Some (fun i -> String.compare a.(i) c)
  | Column.Bools a, Value.Bool c -> Some (fun i -> Bool.compare a.(i) c)
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

(* [against ?ctx op] for each of [vs], sharing the constants' ciphers:
   at the first ciphertext cell the plaintext constants are encrypted
   together under its cluster — an OPE cluster's in one tree walk — and
   the last cluster's ciphers are kept. A constant that cannot be
   encrypted raises only where its test is reached, as in [against]. *)
let against_all ?ctx op vs =
  match ctx with
  | None -> List.map (against op) vs
  | Some c ->
      let plain = List.filter (fun v -> not (Value.is_null v || Value.is_encrypted v)) vs in
      let plain = Array.of_list plain in
      let last = Atomic.make None in
      let encrypted (ca : Value.cipher) =
        match Atomic.get last with
        | Some (scheme, key_id, es)
          when String.equal scheme ca.Value.scheme && String.equal key_id ca.Value.key_id ->
            es
        | _ ->
            let es = Enc_exec.const_ciphers c ca plain in
            Atomic.set last (Some (ca.Value.scheme, ca.Value.key_id, es));
            es
      in
      let next = ref 0 in
      List.map
        (fun v ->
          if Value.is_null v || Value.is_encrypted v then against ~ctx:c op v
          else begin
            let k = !next in
            incr next;
            fun cell ->
              match cell with
              | Value.Enc ca -> (
                  match (encrypted ca).(k) with
                  | Ok e -> compare_values ~ctx:c op cell e
                  | Error e -> raise e)
              | _ -> compare_values ~ctx:c op cell v
          end)
        vs

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
      let typed =
        match resolve attr with
        | Ok (c, ix) -> Option.map (fun cmp r -> cmp (ix r)) (typed_const c v)
        | Error _ -> None
      in
      match (typed, sealed attr) with
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
          let g = get attr and tests = against_all ?ctx Predicate.Eq vs in
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

(* --- column kernels --------------------------------------------------- *)

(* A selection runs an atom as one loop over its column: [k sel len hit]
   marks in [hit], a byte per row of the table, the rows of
   [sel.(0 .. len - 1)] where the atom holds. Choices that depend on the
   columns alone — representation, type class, scheme and key, a
   constant's sealed image — are made once, before the loop, and only
   once some row reaches the atom, as the row loop would first touch
   them. A kernel raises only where the row loop raises too (or
   [Row_path] for "the row loop raises here"); [select] then replays
   the row loop, which raises that error at the row where it comes
   first. *)
type kernel = int array -> int -> Bytes.t -> unit

exception Row_path

let mark hit i = Bytes.unsafe_set hit i '\001'

let by_test test : kernel =
 fun sel len hit ->
  for k = 0 to len - 1 do
    let i = Array.unsafe_get sel k in
    if test i then mark hit i
  done

(* the rows whose comparison [cmp i] satisfies [op] *)
let by_sign op cmp : kernel =
  let lt = of_comparison op (-1) and eq = of_comparison op 0 and gt = of_comparison op 1 in
  fun sel len hit ->
    for k = 0 to len - 1 do
      let i = Array.unsafe_get sel k in
      let c = cmp i in
      if if c < 0 then lt else if c = 0 then eq else gt then mark hit i
    done

(* [by_sign] with the comparison written into the loop: ints, OPE
   images in a sealed column's words, floats *)
let int_sign op (x : int array) c : kernel =
  let lt = of_comparison op (-1) and eq = of_comparison op 0 and gt = of_comparison op 1 in
  fun sel len hit ->
    for k = 0 to len - 1 do
      let i = Array.unsafe_get sel k in
      let v = Array.unsafe_get x i in
      if if v < c then lt else if v = c then eq else gt then mark hit i
    done

let word_sign op words c : kernel =
  let lt = of_comparison op (-1) and eq = of_comparison op 0 and gt = of_comparison op 1 in
  fun sel len hit ->
    for k = 0 to len - 1 do
      let i = Array.unsafe_get sel k in
      let v = Int64.to_int (Bytes.get_int64_le words (8 * i)) in
      if if v < c then lt else if v = c then eq else gt then mark hit i
    done

let float_sign op (x : float array) c : kernel =
  let lt = of_comparison op (-1) and eq = of_comparison op 0 and gt = of_comparison op 1 in
  fun sel len hit ->
    for k = 0 to len - 1 do
      let i = Array.unsafe_get sel k in
      let s = Float.compare (Array.unsafe_get x i) c in
      if if s < 0 then lt else if s = 0 then eq else gt then mark hit i
    done

(* [op] is [Eq] or [Neq]: string equality, or its negation *)
let str_eq op (x : string array) c : kernel =
  let eq = op = Predicate.Eq in
  by_test (fun i -> String.equal (Array.unsafe_get x i) c = eq)

(* the rows whose string is one of [cs] *)
let str_member (x : string array) cs : kernel =
  by_test (fun i ->
      let s = Array.unsafe_get x i in
      List.exists (String.equal s) cs)

let no_row : kernel = fun _ _ _ -> ()
let raising : kernel = fun _ len _ -> if len > 0 then raise Row_path

(* Rows [sel] keeps: those not marked in [hit], or the marked ones with
   their marks cleared. *)
let compact ~marked sel len hit =
  let m = ref 0 in
  for q = 0 to len - 1 do
    let i = Array.unsafe_get sel q in
    if (Bytes.unsafe_get hit i <> '\000') = marked then begin
      if marked then Bytes.unsafe_set hit i '\000';
      Array.unsafe_set sel !m i;
      incr m
    end
  done;
  !m

(* atoms in order, each built and run over the rows no earlier one
   marked, if any is left *)
let disjunction = function
  | [ k ] -> k ()
  | ks ->
      fun sel len hit ->
        Scratch.frame @@ fun () ->
        let pending = Scratch.ints len and n = ref len in
        Array.blit sel 0 pending 0 len;
        List.iter
          (fun k ->
            if !n > 0 then begin
              k () pending !n hit;
              n := compact ~marked:false pending !n hit
            end)
          ks

(* [sealed_compare op] of two sealed columns with typed plain columns,
   as a sign: equality is 0 or 1, as [under_scheme] reads it *)
let sealed_typed op (x : Column.sealed) (y : Column.sealed) =
  if not (Column.is_unboxed x.Column.plain && Column.is_unboxed y.Column.plain) then None
  else if
    not (String.equal x.Column.scheme y.Column.scheme && String.equal x.Column.key_id y.Column.key_id)
  then raise Row_path
  else
    match (x.Column.scheme, op) with
    | ("det" | "ope"), (Predicate.Eq | Predicate.Neq) ->
        Option.map (fun eq i j -> if eq i j then 0 else 1) (Enc_exec.typed_equal x y)
    | "ope", _ -> Enc_exec.typed_order x y
    | _ -> raise Row_path

let atom_kernel ?ctx column a : kernel =
  let generic () = by_test (atom ?ctx (fun attr -> (column attr, Fun.id)) a) in
  let or_generic = function Some k -> k | None -> generic () in
  let typed_const_kernel op x v =
    match (x, v) with
    | Column.Ints a, Value.Int c | Column.Dates a, Value.Date c -> Some (int_sign op a c)
    | Column.Floats a, Value.Float c -> Some (float_sign op a c)
    | Column.Strs a, Value.Str c when op = Predicate.Eq || op = Predicate.Neq ->
        Some (str_eq op a c)
    | x, v -> Option.map (by_sign op) (typed_const x v)
  in
  (* [against_sealed]: the constant is sealed once, under the column's
     scheme and key *)
  let sealed_const op s v =
    match (ctx, v) with
    | _, Value.Null -> Some no_row
    | Some c, v when Column.is_unboxed s.Column.plain && not (Value.is_encrypted v) -> (
        let k = Enc_exec.const_sealed c s v in
        (* det and OPE equality of same-kind ints or strings is theirs *)
        let det_or_ope = String.equal s.Column.scheme "det" || String.equal s.Column.scheme "ope" in
        match (s.Column.plain, v, Enc_exec.ope_const_image s k) with
        | Column.Strs a, Value.Str x, _ when det_or_ope && (op = Predicate.Eq || op = Predicate.Neq) ->
            Some (str_eq op a x)
        | (Column.Ints a, Value.Int x, _ | Column.Dates a, Value.Date x, _)
          when String.equal s.Column.scheme "det" && (op = Predicate.Eq || op = Predicate.Neq) ->
            Some (int_sign op a x)
        | _, _, Some image -> Some (word_sign op s.Column.words image)
        | _ -> (
            match sealed_typed op s k with
            | Some cmp -> Some (by_sign op (fun i -> cmp i 0))
            | None -> None))
    | _ -> None
  in
  match a with
  | Predicate.Cmp_const (attr, op, v) -> (
      match column attr with
      | Column.Sealed s -> or_generic (sealed_const op s v)
      | x -> or_generic (typed_const_kernel op x v))
  | Predicate.Cmp_attr (x, op, y) -> (
      let cmp =
        match (column x, column y) with
        | Column.Sealed sx, Column.Sealed sy -> sealed_typed op sx sy
        | cx, cy -> typed_compare cx cy
      in
      or_generic (Option.map (fun cmp -> by_sign op (fun i -> cmp i i)) cmp))
  | Predicate.In_list (attr, vs) -> (
      let col = column attr in
      let strs = List.filter_map (function Value.Str x -> Some x | _ -> None) vs in
      let all_strs = List.compare_lengths strs vs = 0 in
      (* one test per constant, in order, each over the rows no earlier
         one kept *)
      let each () =
        match col with
        | Column.Values _ -> generic ()
        | Column.Sealed s ->
            (* a sealed IN is its [= v] tests in order *)
            disjunction
              (List.map
                 (fun v () ->
                   match sealed_const Predicate.Eq s v with
                   | Some k -> k
                   | None ->
                       by_test (atom ?ctx (fun attr -> (column attr, Fun.id))
                                  (Predicate.Cmp_const (attr, Predicate.Eq, v))))
                 vs)
        | _ when List.exists (fun v -> Value.is_null v || Value.is_encrypted v) vs -> generic ()
        | x ->
            (* [Value.equal] of typed kinds that do not compare is false *)
            disjunction
              (List.map
                 (fun v () -> Option.fold ~none:no_row ~some:(by_sign Predicate.Eq) (typed_const x v))
                 vs)
      in
      match (col, ctx) with
      | Column.Strs a, _ when all_strs -> str_member a strs
      | Column.Sealed ({ Column.plain = Column.Strs a; scheme = "det" | "ope"; _ } as s), Some c
        when all_strs ->
          (* each constant is still sealed, for its key check *)
          List.iter (fun v -> ignore (Enc_exec.const_sealed c s v)) vs;
          str_member a strs
      | _ -> each ())
  | Predicate.Like (attr, pattern) -> (
      match column attr with
      | Column.Strs a -> by_test (fun i -> Predicate.like_matches ~pattern a.(i))
      | Column.Sealed s when not (Column.is_unboxed s.Column.plain) -> generic ()
      | Column.Values _ -> generic ()
      | _ -> (* a live ciphertext or a non-string cell *) raising)

(* The errors the row loop raises at a row. *)
let row_error = function
  | Row_path | Eval_error _ | Enc_exec.Crypto_error _ | Value.Incomparable _
  | Table.Unknown_attribute _ ->
      true
  | _ -> false

(* The kernels run clause by clause and atom by atom, the row loop row
   by row: both reach the same (row, atom) pairs, so they raise alike,
   but not always first at the same pair. Where a kernel raises, the
   row loop, which join's recheck runs anyway, gives the error. *)
let select ?ctx column p n =
  let row_loop () =
    Obs.incr "eval.select.replays";
    let keep = predicate ?ctx (fun a -> (column a, Fun.id)) p in
    let sel = Scratch.ints n and kept = ref 0 in
    for i = 0 to n - 1 do
      if keep i then begin
        sel.(!kept) <- i;
        incr kept
      end
    done;
    (sel, !kept)
  in
  let sel = Scratch.ints n and len = ref n and hit = Scratch.bytes n in
  Bytes.fill hit 0 n '\000';
  for i = 0 to n - 1 do
    Array.unsafe_set sel i i
  done;
  match
    List.iter
      (fun clause ->
        if !len > 0 then begin
          disjunction (List.map (fun a () -> atom_kernel ?ctx column a) clause) sel !len hit;
          len := compact ~marked:true sel !len hit
        end)
      p
  with
  | () -> (sel, !len)
  | exception e when row_error e -> row_loop ()
