(* Enc_exec regressions and properties: lossless float serialization,
   checked numeric images (no silent int_of_float garbage), OPE
   prefix-only ordering across the cent scale, and the batched column
   kernels' byte-equivalence with the row-at-a-time encryptor. *)

open Relalg
open Engine
module C = Mpq_crypto

let attr = Attr.make

(* one keyring per ctx: ciphertexts must be a pure function of
   (seed, cluster, position) *)
let ctx_of schemes = Enc_exec.of_schemes (C.Keyring.create ~seed:7L ()) schemes

let det_ctx = lazy (ctx_of [ ("x", C.Scheme.Det) ])
let rnd_ctx = lazy (ctx_of [ ("x", C.Scheme.Rnd) ])
let ope_ctx = lazy (ctx_of [ ("x", C.Scheme.Ope) ])
let phe_ctx = lazy (ctx_of [ ("x", C.Scheme.Phe) ])

let roundtrip ctx v =
  Enc_exec.decrypt_value ctx (Enc_exec.encrypt_value ctx (attr "x") v)

let bits = Int64.bits_of_float

let value_eq a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      (* bit-exact (catches -0.0 and one-ulp loss); nan payload bits are
         not representable in %h, so any nan matches any nan *)
      bits x = bits y || (Float.is_nan x && Float.is_nan y)
  | a, b -> a = b

let check_value msg expected got =
  if not (value_eq expected got) then
    Alcotest.failf "%s: expected %s, got %s" msg (Value.to_string expected)
      (Value.to_string got)

let expect_crypto_error msg f =
  match f () with
  | v ->
      Alcotest.failf "%s: expected Crypto_error, got %s" msg
        (Value.to_string v)
  | exception Enc_exec.Crypto_error _ -> ()

(* --- bugfix 1: lossless float serialization --------------------------- *)

let adversarial_floats =
  [ 0.1 +. 0.2 (* 0.30000000000000004 — string_of_float drops the tail *);
    1.0000000000000002 (* one ulp above 1.0 *);
    -0.0;
    4.9e-324 (* smallest subnormal *);
    -1.2345678901234567e-310 (* negative subnormal *);
    1.7976931348623157e308 (* max finite *);
    Float.pi;
    nan;
    infinity;
    neg_infinity ]

let test_float_serialization () =
  List.iter
    (fun f ->
      let v = Value.Float f in
      check_value "serialize/deserialize" v
        (Enc_exec.deserialize (Enc_exec.serialize v));
      check_value "det roundtrip" v (roundtrip (Lazy.force det_ctx) v);
      check_value "rnd roundtrip" v (roundtrip (Lazy.force rnd_ctx) v))
    adversarial_floats

(* --- bugfix 2: checked numeric images --------------------------------- *)

let test_phe_range_checks () =
  let ctx = Lazy.force phe_ctx in
  let enc v () = Enc_exec.encrypt_value ctx (attr "x") v in
  expect_crypto_error "phe of nan" (enc (Value.Float nan));
  expect_crypto_error "phe of +inf" (enc (Value.Float infinity));
  expect_crypto_error "phe of -inf" (enc (Value.Float neg_infinity));
  expect_crypto_error "phe of 1e19" (enc (Value.Float 1e19));
  expect_crypto_error "phe of max_int" (enc (Value.Int max_int));
  expect_crypto_error "phe of min_int" (enc (Value.Int min_int));
  (* in-range values still round-trip, negatives included *)
  check_value "phe int" (Value.Int 42) (roundtrip ctx (Value.Int 42));
  check_value "phe negative int" (Value.Int (-7)) (roundtrip ctx (Value.Int (-7)));
  check_value "phe cents" (Value.Float 1.25) (roundtrip ctx (Value.Float 1.25))

let test_ope_range_checks () =
  let ctx = Lazy.force ope_ctx in
  let enc v () = Enc_exec.encrypt_value ctx (attr "x") v in
  (* 2^39 cents = ±5 497 558 138.88 is the edge of the OPE domain *)
  expect_crypto_error "ope of 2^35" (enc (Value.Int (1 lsl 35)));
  expect_crypto_error "ope of -(2^35)" (enc (Value.Int (-(1 lsl 35))));
  expect_crypto_error "ope of 1e10" (enc (Value.Float 1e10));
  expect_crypto_error "ope of nan" (enc (Value.Float nan));
  check_value "ope big int" (Value.Int 5_000_000_000)
    (roundtrip ctx (Value.Int 5_000_000_000));
  check_value "ope negative" (Value.Int (-5_000_000_000))
    (roundtrip ctx (Value.Int (-5_000_000_000)))

(* --- bugfix 3: OPE ordering ------------------------------------------- *)

let test_ope_cross_scale_order () =
  (* pre-fix, Int images were unit-scale while Float images were cents:
     Enc(4) < Enc(3.5) because 4 < 350 *)
  let ctx = Lazy.force ope_ctx in
  let e v = Enc_exec.encrypt_value ctx (attr "x") v in
  let cmp op a b = Eval.compare_values ~ctx op (e a) (e b) in
  Alcotest.(check bool) "4 > 3.5" true
    (cmp Predicate.Gt (Value.Int 4) (Value.Float 3.5));
  Alcotest.(check bool) "3 < 3.5" true
    (cmp Predicate.Lt (Value.Int 3) (Value.Float 3.5));
  Alcotest.(check bool) "4 = 4.0 at cent precision" true
    (cmp Predicate.Eq (Value.Int 4) (Value.Float 4.0));
  Alcotest.(check bool) "-5 < 3" true
    (cmp Predicate.Lt (Value.Int (-5)) (Value.Int 3));
  Alcotest.(check bool) "-5 < -4.5" true
    (cmp Predicate.Lt (Value.Int (-5)) (Value.Float (-4.5)));
  Alcotest.(check bool) "-2.5 < -2.4" true
    (cmp Predicate.Lt (Value.Float (-2.5)) (Value.Float (-2.4)));
  (* the cent scale must also decrypt back out *)
  check_value "int decrypts unscaled" (Value.Int 4) (roundtrip ctx (Value.Int 4))

let test_ope_tied_prefix_strings () =
  let ctx = Lazy.force ope_ctx in
  let e s = Enc_exec.encrypt_value ctx (attr "x") (Value.Str s) in
  let cipher s = match e s with Value.Enc c -> c | _ -> assert false in
  (* equality is exact (the deterministic tail decides) *)
  Alcotest.(check bool) "tied prefix, Neq" true
    (Eval.compare_values ~ctx Predicate.Neq (e "abcdX") (e "abcdY"));
  Alcotest.(check bool) "tied prefix, Eq is false" false
    (Eval.compare_values ~ctx Predicate.Eq (e "abcdX") (e "abcdY"));
  Alcotest.(check bool) "same string, Eq" true
    (Eval.compare_values ~ctx Predicate.Eq (e "abcdX") (e "abcdX"));
  Alcotest.(check bool) "same string, Le" true
    (Eval.compare_values ~ctx Predicate.Le (e "abcdX") (e "abcdX"));
  (* order across distinct prefixes still works *)
  Alcotest.(check bool) "abc < abd" true
    (Eval.compare_values ~ctx Predicate.Lt (e "abc") (e "abd"));
  (* ... but a range comparison of distinct strings sharing a 4-byte
     prefix must refuse rather than order by the det tail (pre-fix it
     silently returned whatever the tail bytes said) *)
  (match Eval.compare_values ~ctx Predicate.Lt (e "abcdX") (e "abcdY") with
  | b -> Alcotest.failf "expected Crypto_error, got %b" b
  | exception Enc_exec.Crypto_error _ -> ());
  (match Enc_exec.ope_compare (cipher "abcdX") (cipher "abcdY") with
  | c -> Alcotest.failf "expected Crypto_error, got %d" c
  | exception Enc_exec.Crypto_error _ -> ());
  Alcotest.(check int) "ope_compare distinct prefixes" (-1)
    (compare (Enc_exec.ope_compare (cipher "abc") (cipher "abd")) 0)

(* --- properties: roundtrip + order preservation over all schemes ------ *)

let cent_floats =
  QCheck.Gen.map
    (fun c -> float_of_int c /. 100.0)
    (QCheck.Gen.int_range (-100_000_000) 100_000_000)

let gen_numeric =
  QCheck.Gen.(
    frequency
      [ (3, map (fun i -> Value.Int i) (int_range (-100_000) 100_000));
        (1, oneofl [ Value.Int 5_000_000_000; Value.Int (-5_000_000_000) ]);
        (3, map (fun f -> Value.Float f) cent_floats);
        (1, map (fun d -> Value.Date d) (int_range 0 40_000));
        (1, map (fun b -> Value.Bool b) bool) ])

let gen_string =
  (* pool with shared and distinct 4-byte prefixes *)
  QCheck.Gen.oneofl
    [ "alpha"; "beta"; "gamma"; "delta"; "zz"; ""; "abcd"; "abcdX"; "abcdY" ]

let gen_value =
  QCheck.Gen.(
    frequency
      [ (6, gen_numeric);
        (2, map (fun s -> Value.Str s) gen_string);
        (1, return Value.Null) ])

let cent_round = function
  | Value.Float f -> Value.Float (Float.round (f *. 100.0) /. 100.0)
  | v -> v

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"encrypt/decrypt roundtrip, all schemes"
    (QCheck.make ~print:Value.to_string gen_value)
    (fun v ->
      let exact ctx = value_eq v (roundtrip (Lazy.force ctx) v) in
      (* det / rnd: exact for every value *)
      exact det_ctx && exact rnd_ctx
      (* ope: numeric at cent precision, strings exact (det tail) *)
      && value_eq (cent_round v) (roundtrip (Lazy.force ope_ctx) v)
      (* phe: numeric at cent precision; strings have no additive image *)
      &&
      match v with
      | Value.Str _ -> (
          match roundtrip (Lazy.force phe_ctx) v with
          | _ -> false
          | exception Enc_exec.Crypto_error _ -> true)
      | _ -> value_eq (cent_round v) (roundtrip (Lazy.force phe_ctx) v))

let cents_of = function
  | Value.Int i -> i * 100
  | Value.Float f -> int_of_float (Float.round (f *. 100.0))
  | Value.Date d -> d * 100
  | Value.Bool b -> if b then 100 else 0
  | _ -> assert false

let prop_ope_order =
  QCheck.Test.make ~count:300 ~name:"OPE preserves order (cent scale)"
    (QCheck.make
       ~print:(fun (a, b) -> Value.to_string a ^ " vs " ^ Value.to_string b)
       QCheck.Gen.(pair gen_numeric gen_numeric))
    (fun (a, b) ->
      let ctx = Lazy.force ope_ctx in
      let cipher v =
        match Enc_exec.encrypt_value ctx (attr "x") v with
        | Value.Enc c -> c
        | _ -> assert false
      in
      match (a, b) with
      | Value.Bool _, Value.Bool _ | Value.Date _, Value.Date _
      | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
          compare (cents_of a) (cents_of b)
          = Enc_exec.ope_compare (cipher a) (cipher b)
      | _ ->
          (* incomparable type classes must refuse, like plaintext *)
          ( match Enc_exec.ope_compare (cipher a) (cipher b) with
          | _ -> false
          | exception Enc_exec.Crypto_error _ -> true ))

let prop_ope_string_order =
  QCheck.Test.make ~count:200 ~name:"OPE string order: prefix or refuse"
    (QCheck.make
       ~print:(fun (a, b) -> a ^ " vs " ^ b)
       QCheck.Gen.(pair gen_string gen_string))
    (fun (a, b) ->
      let ctx = Lazy.force ope_ctx in
      let cipher s =
        match Enc_exec.encrypt_value ctx (attr "x") (Value.Str s) with
        | Value.Enc c -> c
        | _ -> assert false
      in
      let prefix s = String.sub (s ^ "\x00\x00\x00\x00") 0 4 in
      let tied = String.equal (prefix a) (prefix b) && not (String.equal a b) in
      match Enc_exec.ope_compare (cipher a) (cipher b) with
      | c -> (not tied) && compare (compare (prefix a) (prefix b)) 0 = compare c 0
      | exception Enc_exec.Crypto_error _ -> tied)

(* --- OPE column kernel over mixed columns ----------------------------- *)

(* A [Column.Values] column (Nulls, mixed types, an already-encrypted
   cell) goes through the same sorted tree walk as a typed column; it
   must stay byte-equal to the row-at-a-time encryptor, errors included
   and in the same row order. *)
let ope_outcome f =
  match f () with
  | vs -> Ok vs
  | exception Enc_exec.Crypto_error m -> Error m

let ope_batch_vs_row cells =
  let ctx = Lazy.force ope_ctx in
  let nrng = Enc_exec.node_rng ctx 1 in
  let batch () =
    match
      Enc_exec.encrypt_batch ctx ~rng_root:nrng
        ~enc:[ (attr "x", Column.Values cells) ]
    with
    | [ col ] -> Column.to_values col
    | _ -> assert false
  in
  let rows () = Array.map (Enc_exec.encrypt_value ctx (attr "x")) cells in
  let got = ope_outcome batch in
  (got = ope_outcome rows, got)

let test_ope_mixed_column () =
  let cells =
    [| Value.Int 5; Value.Null; Value.Float 2.5; Value.Str "abcdX";
       Value.Date 100; Value.Bool true; Value.Int 5; Value.Null;
       Value.Str "abcdX"; Value.Int (-7); Value.Float (-0.01);
       Value.Str ""; Value.Bool false; Value.Int 5_000_000_000 |]
  in
  let same, got = ope_batch_vs_row cells in
  Alcotest.(check bool) "mixed column byte-equal to row path" true same;
  (match got with
  | Ok vs ->
      Array.iteri
        (fun k v ->
          check_value "mixed column decrypts" (cent_round cells.(k))
            (Enc_exec.decrypt_value (Lazy.force ope_ctx) v))
        vs;
      Alcotest.(check bool) "decrypt_batch inverts the column" true
        (Array.for_all2 value_eq (Array.map cent_round cells)
           (Column.to_values
              (Enc_exec.decrypt_batch (Lazy.force ope_ctx) (Column.Values vs))))
  | Error m -> Alcotest.failf "mixed column raised %s" m);
  let enc = Enc_exec.encrypt_value (Lazy.force ope_ctx) (attr "x") (Value.Int 1) in
  let already = "attribute x is already encrypted"
  and out_of_domain =
    Printf.sprintf "cent-scaled value %d outside the OPE plaintext domain"
      ((1 lsl 40) * 100)
  in
  let expect_error msg expected cells =
    match ope_batch_vs_row cells with
    | true, Error m -> Alcotest.(check string) msg expected m
    | true, Ok _ -> Alcotest.failf "%s: no error" msg
    | false, _ -> Alcotest.failf "%s: batch and row paths disagree" msg
  in
  expect_error "already encrypted" already [| Value.Int 1; Value.Null; enc |];
  expect_error "encrypted cell before an out-of-domain one" already
    [| Value.Null; enc; Value.Int (1 lsl 40) |];
  expect_error "out-of-domain cell before an encrypted one" out_of_domain
    [| Value.Int (1 lsl 40); enc |]

let prop_ope_values_column =
  QCheck.Test.make ~count:100 ~name:"OPE Values column == row-at-a-time"
    (QCheck.make
       ~print:QCheck.Print.(array Value.to_string)
       QCheck.Gen.(array_size (int_range 0 20) gen_value))
    (fun cells -> fst (ope_batch_vs_row cells))

(* --- columnar batch kernels == row-at-a-time -------------------------- *)

let test_batch_vs_row () =
  let schemes =
    [ ("a", C.Scheme.Det); ("b", C.Scheme.Ope); ("c", C.Scheme.Phe);
      ("d", C.Scheme.Rnd) ]
  in
  let ctx = ctx_of schemes in
  let n = 17 in
  let col_a =
    Column.Strs (Array.init n (fun i -> Printf.sprintf "s%d" (i mod 5)))
  in
  let col_b = Column.Floats (Array.init n (fun i -> float_of_int (i - 8) /. 4.)) in
  let col_c =
    (* mixed with Nulls: Null cells must draw no randomness *)
    Column.Values
      (Array.init n (fun i ->
           if i mod 4 = 2 then Value.Null else Value.Int ((i * 7) - 30)))
  in
  let col_d = Column.Ints (Array.init n (fun i -> i * i)) in
  let cols = [ col_a; col_b; col_c; col_d ] in
  let attrs = List.map attr [ "a"; "b"; "c"; "d" ] in
  let nrng = Enc_exec.node_rng ctx 3 in
  (* reference: the row-at-a-time encryptor, per-row derived generator
     consumed across attributes in order *)
  let row_path =
    List.map
      (fun (a, col) ->
        Array.init n (fun k ->
            let rng = C.Prng.derive nrng k in
            (* consume the row's draws for the columns before this one,
               exactly like a row-major pass would *)
            List.iter
              (fun (a', col') ->
                if Attr.compare a' a < 0 then
                  ignore
                    (Enc_exec.encrypt_value ~rng ctx a' (Column.get col' k)))
              (List.combine attrs cols);
            Enc_exec.encrypt_value ~rng ctx a (Column.get col k))
      )
      (List.combine attrs cols)
  in
  let check tag batch =
    List.iteri
      (fun j col ->
        let got = Column.to_values col in
        Array.iteri
          (fun k v ->
            if not (value_eq (List.nth row_path j).(k) v) then
              Alcotest.failf "%s: column %d row %d differs" tag j k)
          got)
      batch
  in
  let batch =
    Enc_exec.encrypt_batch ctx ~rng_root:nrng ~enc:(List.combine attrs cols)
  in
  check "batch" batch;
  (* and decrypt_batch inverts the lot *)
  List.iteri
    (fun j col ->
      let plain = Column.to_values (Enc_exec.decrypt_batch ctx col) in
      Array.iteri
        (fun k v -> check_value "decrypt_batch" (Column.get (List.nth cols j) k) v)
        plain)
    batch

(* --- plan-level differential: tables built from rows (typed columns) vs
   the same cells in boxed columns ------------------------------------- *)

let udf_impls =
  [ ( "f",
      fun vals ->
        let total =
          List.fold_left
            (fun acc v ->
              match Value.to_float v with Some f -> acc +. f | None -> acc)
            0.0 vals
        in
        Value.Int (int_of_float total mod 97) ) ]

let byte_identical a b =
  List.equal Attr.equal (Table.attrs a) (Table.attrs b)
  && List.equal
       (fun (r1 : Value.t array) r2 -> r1 = r2)
       (Table.rows a) (Table.rows b)

let gen_tables st =
  let int () = Value.Int (QCheck.Gen.int_bound 120 st) in
  let str () =
    Value.Str (List.nth [ "ga"; "bu"; "zo"; "meu" ] (QCheck.Gen.int_bound 3 st))
  in
  let rows n mk = List.init n (fun _ -> mk ()) in
  let t1 =
    Table.of_schema Gen.rel1
      (rows (3 + QCheck.Gen.int_bound 12 st) (fun () ->
           [| int (); int (); str (); int () |]))
  in
  let t2 =
    Table.of_schema Gen.rel2
      (rows (3 + QCheck.Gen.int_bound 12 st) (fun () ->
           [| int (); int (); str () |]))
  in
  let t3 =
    Table.of_schema Gen.rel3
      (rows (3 + QCheck.Gen.int_bound 8 st) (fun () -> [| int (); int () |]))
  in
  [ ("R1", t1); ("R2", t2); ("R3", t3) ]

let prop_columnar_layout_identical =
  QCheck.Test.make ~count:80
    ~name:"column-layout base tables byte-identical to row-layout"
    (QCheck.make
       ~print:(fun ((c : Gen.extended_case), _) ->
         Plan_printer.to_ascii c.Gen.executable)
       QCheck.Gen.(
         Gen.gen_extended >>= fun case ->
         fun st -> (case, gen_tables st)))
    (fun (case, tables) ->
      let ctx tables =
        let keyring = C.Keyring.create ~seed:123L () in
        let crypto = Enc_exec.make keyring case.Gen.clusters in
        Exec.context ~udfs:udf_impls ~crypto tables
      in
      (* the same cells, every column boxed: operators must not depend
         on a column's representation *)
      let columnized =
        List.map
          (fun (name, t) ->
            ( name,
              Table.of_columns ~nrows:(Table.cardinality t) (Table.attrs t)
                (Array.map
                   (fun c -> Column.Values (Column.to_values c))
                   (Table.columns t)) ))
          tables
      in
      let by_rows = Exec.run (ctx tables) case.Gen.executable in
      let by_cols = Exec.run (ctx columnized) case.Gen.executable in
      if byte_identical by_rows by_cols then true
      else
        QCheck.Test.fail_reportf
          "typed-column and boxed-column runs differ:\n%s\nvs\n%s"
          (Table.to_string by_rows) (Table.to_string by_cols))

(* --- malformed ciphertexts -------------------------------------------- *)

(* A malformed payload must surface as [Crypto_error] naming the scheme
   and key, on the value path and on the batch path, and the batch path
   must report the first bad row. *)
let test_malformed_ciphertexts () =
  let ctx =
    ctx_of [ ("d", C.Scheme.Det); ("o", C.Scheme.Ope); ("r", C.Scheme.Rnd) ]
  in
  let forged scheme key_id payload =
    Value.Enc { Value.scheme; key_id; payload }
  in
  let bad =
    [ forged "ope" "o" (String.make 7 '\xff' ^ "i");
      forged "det" "d" "short";
      forged "det" "d" "0123456789abcdef";
      forged "rnd" "r" "short";
      forged "rnd" "r" (String.make 24 'x') ]
  in
  let message f =
    match f () with
    | _ -> Alcotest.fail "expected Crypto_error"
    | exception Enc_exec.Crypto_error m -> m
  in
  let batch cells () =
    Enc_exec.decrypt_batch ctx (Column.Values (Array.of_list cells))
  in
  let good = Enc_exec.encrypt_value ctx (attr "o") (Value.Int 5) in
  let messages =
    List.map
      (fun v ->
        let c = match v with Value.Enc c -> c | _ -> assert false in
        let m = message (fun () -> Enc_exec.decrypt_value ctx v) in
        let prefix =
          Printf.sprintf "malformed %s ciphertext under key %s: " c.Value.scheme
            c.Value.key_id
        in
        Alcotest.(check bool) (m ^ " names scheme and key") true
          (String.starts_with ~prefix m);
        Alcotest.(check string) "batch path, same message" m
          (message (batch [ good; Value.Null; v; good ]));
        m)
      bad
  in
  Alcotest.(check string) "batch reports the first bad row" (List.hd messages)
    (message (batch (good :: bad)));
  Alcotest.(check string) "... in either order"
    (List.hd (List.rev messages))
    (message (batch (good :: List.rev bad)))

(* --- the ciphertext memo ---------------------------------------------- *)

let clusters_of pairs =
  List.map
    (fun (name, scheme) ->
      { Authz.Plan_keys.id = name;
        attrs = Attr.Set.singleton (attr name);
        scheme;
        holders = Authz.Subject.Set.empty })
    pairs

let memo_clusters =
  clusters_of
    [ ("p", C.Scheme.Det); ("q", C.Scheme.Det); ("o", C.Scheme.Ope);
      ("u", C.Scheme.Ope) ]

let encrypt_column ctx name col =
  match
    Enc_exec.encrypt_batch ctx ~rng_root:(Enc_exec.node_rng ctx 1)
      ~enc:[ (attr name, col) ]
  with
  | [ out ] -> Column.to_values out
  | _ -> assert false

(* the schemes' own functions, called directly *)
let direct keyring (cluster : Authz.Plan_keys.cluster) v =
  let id = cluster.Authz.Plan_keys.id in
  let det s = C.Det.encrypt (C.Keyring.det_key keyring id) s in
  let mk payload =
    Value.Enc
      { Value.scheme = C.Scheme.name cluster.Authz.Plan_keys.scheme;
        key_id = id;
        payload }
  in
  match (v, cluster.Authz.Plan_keys.scheme) with
  | Value.Null, _ -> Value.Null
  | v, C.Scheme.Det -> mk (det (Enc_exec.serialize v))
  | v, _ ->
      let image, tag =
        match v with
        | Value.Str s ->
            let b i = if i < String.length s then Char.code s.[i] else 0 in
            ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3, 's')
        | Value.Float _ -> (cents_of v, 'f')
        | Value.Int _ -> (cents_of v, 'i')
        | Value.Date _ -> (cents_of v, 'd')
        | _ -> (cents_of v, 'b')
      in
      let tail =
        match v with
        | Value.Str _ -> det (Enc_exec.serialize v)
        | Value.Float f when Float.round (f *. 100.0) /. 100.0 <> f ->
            det (Enc_exec.serialize v)
        | _ -> ""
      in
      let c = (C.Ope.encode_array (C.Keyring.ope_key keyring id) [| image |]).(0) in
      mk (C.Ope.bytes_of_cipher c ^ String.make 1 tag ^ tail)

let gen_memo_column =
  let open QCheck.Gen in
  let small_ints = int_range (-300) 300 in
  let sub_cents = map (fun k -> float_of_int k /. 1000.0) (int_range (-3000) 3000) in
  let strs = oneofl [ "abcdX"; "abcdY"; "abcd"; "abc"; ""; "zzzz1"; "zzzz2" ] in
  let n = int_range 0 40 in
  oneof
    [ map (fun a -> Column.Ints a) (array_size n small_ints);
      map (fun a -> Column.Floats a) (array_size n sub_cents);
      map (fun a -> Column.Strs a) (array_size n strs);
      map (fun a -> Column.Dates a) (array_size n (int_range 0 400));
      map (fun a -> Column.Bools a) (array_size n bool);
      map (fun a -> Column.Values a)
        (array_size n
           (frequency
              [ (4, gen_value);
                (1, map (fun f -> Value.Float f) sub_cents);
                (1, return Value.Null) ])) ]

let print_column col =
  QCheck.Print.(array Value.to_string) (Column.to_values col)

(* Columns of every kind, twice through one store with the clusters of
   each scheme interleaved, are byte-equal to a store-less context and
   to the schemes' own functions. *)
let prop_memo_bytes =
  QCheck.Test.make ~count:150 ~name:"memo: store = store-less = direct"
    (QCheck.make ~print:QCheck.Print.(list print_column)
       QCheck.Gen.(list_size (int_range 1 4) gen_memo_column))
    (fun cols ->
      let seed = 7L in
      let st = Enc_exec.store (C.Keyring.create ~seed ()) in
      let keyring = C.Keyring.create ~seed () in
      List.for_all
        (fun _pass ->
          List.for_all
            (fun col ->
              List.for_all
                (fun (cl : Authz.Plan_keys.cluster) ->
                  let name = cl.Authz.Plan_keys.id in
                  let via_store =
                    encrypt_column (Enc_exec.of_store st memo_clusters) name col
                  in
                  let store_less =
                    encrypt_column
                      (Enc_exec.make (C.Keyring.create ~seed ()) memo_clusters)
                      name col
                  in
                  via_store = store_less
                  && via_store = Array.map (direct keyring cl) (Column.to_values col))
                memo_clusters)
            cols)
        [ 1; 2 ])

(* An error raised after memo hits carries the same message, for the
   same row, as on a cold context. *)
let test_memo_errors () =
  let seed = 7L in
  let st = Enc_exec.store (C.Keyring.create ~seed ()) in
  let cold () = Enc_exec.make (C.Keyring.create ~seed ()) memo_clusters in
  let enc =
    Enc_exec.encrypt_value (cold ()) (attr "o") (Value.Int 1)
  in
  let outcome ctx name cells =
    match encrypt_column ctx name (Column.Values cells) with
    | _ -> Alcotest.fail "expected Crypto_error"
    | exception Enc_exec.Crypto_error m -> m
  in
  let warm = [| Value.Int 1; Value.Int 2; Value.Str "abcdX"; Value.Float 0.125 |] in
  List.iter
    (fun name ->
      ignore (encrypt_column (Enc_exec.of_store st memo_clusters) name (Column.Values warm)))
    [ "p"; "o" ];
  List.iter
    (fun (name, cells) ->
      Alcotest.(check string)
        (Printf.sprintf "cluster %s, %d cells" name (Array.length cells))
        (outcome (cold ()) name cells)
        (outcome (Enc_exec.of_store st memo_clusters) name cells))
    [ ("o", Array.append warm [| Value.Int (1 lsl 40); enc |]);
      ("o", Array.append warm [| enc; Value.Int (1 lsl 40) |]);
      ("o", Array.append warm [| Value.Null; Value.Float nan |]);
      ("p", Array.append warm [| Value.Null; enc |]) ]

(* The same plaintext under two cluster ids, or under two seeds, gives
   different ciphertexts, and the second key computes its own: no memo
   entry answers for another key. *)
let test_memo_isolation () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ())
  @@ fun () ->
  let col = Column.Strs [| "abcdX"; "abcdY"; "abcdX" |] in
  let misses f =
    let before = Obs.counter "enc_exec.memo.misses" in
    let out = f () in
    (out, Obs.counter "enc_exec.memo.misses" - before)
  in
  let st seed = Enc_exec.store (C.Keyring.create ~seed ()) in
  List.iter
    (fun (a, b) ->
      let s7 = st 7L in
      let ctx s = Enc_exec.of_store s memo_clusters in
      let first, m1 = misses (fun () -> encrypt_column (ctx s7) a col) in
      let again, m2 = misses (fun () -> encrypt_column (ctx s7) a col) in
      let other_id, m3 = misses (fun () -> encrypt_column (ctx s7) b col) in
      let other_seed, m4 =
        misses (fun () -> encrypt_column (ctx (st 8L)) a col)
      in
      let payloads vs =
        Array.map (function Value.Enc c -> c.Value.payload | _ -> "") vs
      in
      Alcotest.(check bool) (a ^ ": memo hit, same bytes") true (first = again);
      Alcotest.(check int) (a ^ ": hits compute nothing") 0 m2;
      Alcotest.(check bool) (a ^ " vs " ^ b ^ ": bytes differ") true
        (Array.for_all2 ( <> ) (payloads first) (payloads other_id));
      Alcotest.(check bool) (a ^ " under two seeds: bytes differ") true
        (Array.for_all2 ( <> ) (payloads first) (payloads other_seed));
      Alcotest.(check (list int)) (a ^ ": misses per key") [ m1; m1 ] [ m3; m4 ];
      Alcotest.(check bool) (a ^ ": the first pass computes") true (m1 > 0))
    [ ("p", "q"); ("o", "u") ]

(* A column with more distinct values than the cap clears the memo
   midway and still gives the same bytes. *)
let test_memo_cap () =
  let n = Enc_exec.memo_cap + 100 in
  let seed = 7L in
  let st = Enc_exec.store (C.Keyring.create ~seed ()) in
  let keyring = C.Keyring.create ~seed () in
  let p = List.hd memo_clusters in
  let col = Column.Ints (Array.init n (fun i -> (i * 7919) mod n)) in
  let expected = Array.map (direct keyring p) (Column.to_values col) in
  List.iter
    (fun pass ->
      Alcotest.(check bool)
        (Printf.sprintf "pass %d: %d distinct values, same bytes" pass n)
        true
        (encrypt_column (Enc_exec.of_store st memo_clusters) "p" col = expected))
    [ 1; 2 ]

(* --- sealed rnd columns -------------------------------------------------- *)

let rnd_ctx_of () = ctx_of [ ("r", C.Scheme.Rnd) ]
let rnd_root ctx = Enc_exec.node_rng ctx 1

let seal ctx col =
  match
    Enc_exec.encrypt_batch ctx ~rng_root:(rnd_root ctx) ~enc:[ (attr "r", col) ]
  with
  | [ (Column.Sealed _ as out) ] -> out
  | _ -> Alcotest.fail "an rnd column did not come back sealed"

(* the eager oracle: each row encrypted on its own, under the generator
   the executor derives for that row *)
let eager ctx col =
  Array.init (Column.length col) (fun k ->
      Enc_exec.encrypt_value ~rng:(C.Prng.derive (rnd_root ctx) k) ctx (attr "r")
        (Column.get col k))

let edge_cells =
  [| Value.Null; Value.Float nan; Value.Float (-0.0); Value.Float infinity;
     Value.Float neg_infinity; Value.Float 0.1; Value.Int max_int;
     Value.Int min_int; Value.Str ""; Value.Str "abcdX"; Value.Date 0;
     Value.Date 20_000; Value.Bool true |]

let gen_sealed_input =
  let open QCheck.Gen in
  let n = int_range 0 30 in
  oneof
    [ gen_memo_column;
      map (fun a -> Column.Floats a)
        (array_size n (oneofl [ nan; -0.0; 0.0; infinity; neg_infinity; 1e300 ]));
      map (fun a -> Column.Ints a) (array_size n (oneofl [ max_int; min_int; 0 ]));
      map (fun a -> Column.Values a) (array_size n (oneofl (Array.to_list edge_cells))) ]

let one_column col =
  Table.of_columns ~nrows:(Column.length col) [ attr "r" ] [| col |]

(* Every reader sees the eager bytes: cell by cell, whole-column,
   through row and column movers, as table rows, as CSV and as a byte
   count. *)
let prop_sealed_bytes =
  QCheck.Test.make ~count:150 ~name:"sealed: every path = eager rnd"
    (QCheck.make ~print:print_column gen_sealed_input)
    (fun col ->
      let ctx = rnd_ctx_of () in
      let sealed = seal ctx col and want = eager ctx col in
      let n = Column.length col in
      let idx = Array.init (2 * n) (fun k -> (k * 7) mod max n 1) in
      let pos = n / 3 and len = n - (n / 3) in
      let plain_table = one_column (Column.Values want) in
      Array.for_all2 ( = ) want (Array.init n (Column.get sealed))
      && Column.to_values sealed = want
      && Column.to_values (Column.gather sealed idx) = Array.map (fun k -> want.(k)) idx
      && Column.to_values (Column.sub sealed pos len) = Array.sub want pos len
      && Table.rows (one_column sealed) = Table.rows plain_table
      && Csv.to_string (one_column sealed) = Csv.to_string plain_table
      && Table.byte_size (one_column sealed) = Table.byte_size plain_table)

let rnd_cell = function
  | Value.Null -> true
  | Value.Enc { Value.scheme = "rnd"; key_id = "r"; _ } -> true
  | _ -> false

(* No way out of a sealed column hands back a plaintext cell. *)
let prop_sealed_no_plaintext =
  QCheck.Test.make ~count:150 ~name:"sealed: no path yields plaintext"
    (QCheck.make ~print:print_column gen_sealed_input)
    (fun col ->
      let sealed = seal (rnd_ctx_of ()) col in
      let n = Column.length sealed in
      let csv_lines =
        List.tl (String.split_on_char '\n' (Csv.to_string (one_column sealed)))
      in
      List.for_all
        (fun k -> Column.is_null sealed k || Column.is_encrypted sealed k)
        (List.init n Fun.id)
      && List.for_all rnd_cell (List.init n (Column.get sealed))
      && Array.for_all rnd_cell (Column.to_values sealed)
      && Array.for_all rnd_cell
           (Column.to_values (Column.gather sealed (Array.init n (fun k -> n - 1 - k))))
      && List.for_all (fun row -> rnd_cell row.(0)) (Table.rows (one_column sealed))
      && List.for_all
           (fun l -> l = "" || String.starts_with ~prefix:"enc:rnd:" l)
           csv_lines)

(* floats compared by their bits: a nan's payload included *)
let bit_equal a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> bits x = bits y
  | a, b -> a = b

(* Decrypting a sealed column gives what decrypting its bytes would:
   [deserialize (serialize v)] for every live cell, Null for Null. *)
let prop_sealed_decrypt =
  QCheck.Test.make ~count:150 ~name:"sealed: decrypt = deserialize . serialize"
    (QCheck.make ~print:print_column gen_sealed_input)
    (fun col ->
      let ctx = rnd_ctx_of () in
      let sealed = seal ctx col in
      let want =
        Array.map
          (function
            | Value.Null -> Value.Null
            | v -> Enc_exec.deserialize (Enc_exec.serialize v))
          (Column.to_values col)
      in
      let opened = Column.to_values (Enc_exec.decrypt_batch ctx sealed) in
      let by_bytes =
        Column.to_values
          (Enc_exec.decrypt_batch ctx (Column.Values (Column.to_values sealed)))
      in
      Array.for_all2 bit_equal want opened && Array.for_all2 bit_equal by_bytes opened)

(* Encrypting a sealed column raises "already encrypted" where its
   materialized cells would, after the errors of the columns before it;
   an all-Null one encrypts to Nulls. A sealed column under a key the
   context does not hold fails its decryption. *)
let test_sealed_reencrypt () =
  let schemes =
    [ ("r", C.Scheme.Rnd); ("d", C.Scheme.Det); ("o", C.Scheme.Ope);
      ("p", C.Scheme.Phe); ("q", C.Scheme.Rnd) ]
  in
  let ctx = ctx_of schemes in
  let outcome enc =
    match Enc_exec.encrypt_batch ctx ~rng_root:(rnd_root ctx) ~enc with
    | cols -> Ok (List.map Column.to_values cols)
    | exception Enc_exec.Crypto_error m -> Error m
  in
  let check label ~before cells expected =
    let sealed = seal ctx (Column.Values cells) in
    let boxed = Column.Values (Column.to_values sealed) in
    List.iter
      (fun target ->
        let enc col = before @ [ (attr target, col) ] in
        let got = outcome (enc sealed) and today = outcome (enc boxed) in
        Alcotest.(check bool) (label ^ ", under " ^ target) true (got = today);
        match (expected target, got) with
        | Some m, Error g -> Alcotest.(check string) (label ^ ": message") m g
        | None, Ok _ -> ()
        | Some _, Ok _ -> Alcotest.failf "%s under %s: no error" label target
        | None, Error g -> Alcotest.failf "%s under %s: raised %s" label target g)
      [ "d"; "o"; "p"; "q" ]
  in
  let already t = Some (Printf.sprintf "attribute %s is already encrypted" t) in
  check "live cells" ~before:[] [| Value.Null; Value.Int 3; Value.Null; Value.Str "" |]
    already;
  check "all Null" ~before:[] [| Value.Null; Value.Null |] (fun _ -> None);
  let out_of_domain =
    Printf.sprintf "cent-scaled value %d outside the OPE plaintext domain"
      (100 lsl 40)
  in
  check "an earlier column fails first"
    ~before:[ (attr "o", Column.Ints [| 1; 1 lsl 40; 2 |]) ]
    [| Value.Int 1; Value.Null; Value.Int 2 |]
    (fun _ -> Some out_of_domain);
  let foreign = seal (rnd_ctx_of ()) (Column.Ints [| 4 |]) in
  (match Enc_exec.decrypt_batch (ctx_of [ ("z", C.Scheme.Rnd) ]) foreign with
  | _ -> Alcotest.fail "a sealed column decrypted under a missing key"
  | exception Enc_exec.Crypto_error m ->
      Alcotest.(check string) "unknown key" "unknown key cluster r" m);
  ignore
    (Enc_exec.decrypt_batch (ctx_of [ ("z", C.Scheme.Rnd) ])
       (seal (rnd_ctx_of ()) (Column.Values [| Value.Null |])))

(* Sealing counts its cells; only a read produces bytes. *)
let test_sealed_counters () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ())
  @@ fun () ->
  let ctx = rnd_ctx_of () in
  let cells = [| Value.Int 1; Value.Null; Value.Str "a"; Value.Null; Value.Int 9 |] in
  let sealed = seal ctx (Column.Values cells) in
  let made () = Obs.counter "enc_exec.rnd.materialized" in
  let table = one_column sealed in
  Alcotest.(check int) "cells sealed" 3 (Obs.counter "enc_exec.rnd.sealed");
  ignore (Enc_exec.decrypt_batch ctx sealed);
  ignore (Table.byte_size table);
  ignore (Column.gather sealed [| 4; 0; 1 |]);
  ignore (Column.sub sealed 1 3);
  ignore
    (List.init 5 (fun k -> Column.is_null sealed k || Column.is_encrypted sealed k));
  Alcotest.(check (option string)) "the release check sees ciphertext" None
    (Test_engine_data.mismatch (Authz.Profile.make ~ve:[ "r" ] ()) table);
  Alcotest.(check (option string)) "... where plaintext is profiled"
    (Some "r encrypted but profiled plaintext")
    (Test_engine_data.mismatch (Authz.Profile.make ~vp:[ "r" ] ()) table);
  Alcotest.(check int) "no reader above produced bytes" 0 (made ());
  ignore (Table.rows table);
  Alcotest.(check int) "reading the rows encrypts the live cells" 3 (made ())

(* A malformed Paillier payload is a [Crypto_error] naming the scheme
   and key, as in decryption. *)
let test_phe_sum_malformed () =
  let ctx = Lazy.force phe_ctx in
  List.iter
    (fun payload ->
      let v = Value.Enc { Value.scheme = "phe"; key_id = "x"; payload } in
      match Enc_exec.phe_sum ctx [ v ] ~avg:false with
      | _ -> Alcotest.failf "%s: expected Crypto_error" payload
      | exception Enc_exec.Crypto_error m ->
          Alcotest.(check bool) (payload ^ ": " ^ m) true
            (String.starts_with ~prefix:"malformed phe ciphertext under key x: " m))
    [ "v|zz|i"; "v||i"; "v|123|" ]

let () =
  Alcotest.run "enc_exec"
    [ ( "serialization",
        [ ("lossless floats (incl. nan/inf/subnormals)", `Quick,
           test_float_serialization) ] );
      ( "range checks",
        [ ("phe rejects non-finite and overflow", `Quick, test_phe_range_checks);
          ("ope rejects out-of-domain", `Quick, test_ope_range_checks) ] );
      ( "ope ordering",
        [ ("cent scale across int/float", `Quick, test_ope_cross_scale_order);
          ("tied 4-byte prefixes refuse ordering", `Quick,
           test_ope_tied_prefix_strings) ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_ope_order;
          QCheck_alcotest.to_alcotest prop_ope_string_order ] );
      ( "columnar",
        [ ("batch kernels == row-at-a-time (incl. decrypt)", `Quick,
           test_batch_vs_row);
          ("ope kernel over a mixed Values column", `Quick,
           test_ope_mixed_column);
          QCheck_alcotest.to_alcotest prop_ope_values_column;
          QCheck_alcotest.to_alcotest prop_columnar_layout_identical ] );
      ( "decryption",
        [ ("malformed ciphertexts raise Crypto_error, in row order", `Quick,
           test_malformed_ciphertexts) ] );
      ( "memo",
        [ QCheck_alcotest.to_alcotest prop_memo_bytes;
          ("errors after memo hits", `Quick, test_memo_errors);
          ("no entry shared across cluster ids or seeds", `Quick,
           test_memo_isolation);
          ("a column past the cap", `Quick, test_memo_cap) ] );
      ( "sealed",
        [ QCheck_alcotest.to_alcotest prop_sealed_bytes;
          QCheck_alcotest.to_alcotest prop_sealed_no_plaintext;
          QCheck_alcotest.to_alcotest prop_sealed_decrypt;
          ("re-encrypting raises as before", `Quick, test_sealed_reencrypt);
          ("only reads produce bytes", `Quick, test_sealed_counters);
          ("phe_sum: malformed payloads", `Quick, test_phe_sum_malformed) ] ) ]
