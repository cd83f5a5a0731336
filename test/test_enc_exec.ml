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
          QCheck_alcotest.to_alcotest prop_columnar_layout_identical ] ) ]
