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

(* --- sealed det and OPE columns: bytes --------------------------------- *)

let clusters_of pairs =
  List.map
    (fun (name, scheme) ->
      { Authz.Plan_keys.id = name;
        attrs = Attr.Set.singleton (attr name);
        scheme;
        holders = Authz.Subject.Set.empty })
    pairs

let det_ope_clusters =
  clusters_of
    [ ("p", C.Scheme.Det); ("q", C.Scheme.Det); ("o", C.Scheme.Ope);
      ("u", C.Scheme.Ope) ]

let sealed_of ctx name col =
  match
    Enc_exec.encrypt_batch ctx ~rng_root:(Enc_exec.node_rng ctx 1)
      ~enc:[ (attr name, col) ]
  with
  | [ (Column.Sealed _ as out) ] -> out
  | _ -> Alcotest.failf "a %s column did not come back sealed" name

let encrypt_column ctx name col = Column.to_values (sealed_of ctx name col)

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

let gen_plain_column =
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
   each scheme interleaved, seal to bytes equal to a store-less
   context's and to the schemes' own functions. *)
let prop_sealed_direct =
  QCheck.Test.make ~count:150 ~name:"sealed det/ope: store = store-less = direct"
    (QCheck.make ~print:QCheck.Print.(list print_column)
       QCheck.Gen.(list_size (int_range 1 4) gen_plain_column))
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
                    encrypt_column (Enc_exec.of_store st det_ope_clusters) name col
                  in
                  let store_less =
                    encrypt_column
                      (Enc_exec.make (C.Keyring.create ~seed ()) det_ope_clusters)
                      name col
                  in
                  via_store = store_less
                  && via_store = Array.map (direct keyring cl) (Column.to_values col))
                det_ope_clusters)
            cols)
        [ 1; 2 ])

(* Sealing raises the encrypt-time errors eagerly, with the row path's
   message for the row path's first bad row, on a cold context and on a
   store that has already sealed other columns. *)
let test_sealed_errors () =
  let seed = 7L in
  let st = Enc_exec.store (C.Keyring.create ~seed ()) in
  let cold () = Enc_exec.make (C.Keyring.create ~seed ()) det_ope_clusters in
  let enc =
    Enc_exec.encrypt_value (cold ()) (attr "o") (Value.Int 1)
  in
  let outcome ctx name cells =
    match encrypt_column ctx name (Column.Values cells) with
    | _ -> Alcotest.fail "expected Crypto_error"
    | exception Enc_exec.Crypto_error m -> m
  in
  let row_path name cells =
    match Array.map (Enc_exec.encrypt_value (cold ()) (attr name)) cells with
    | _ -> Alcotest.fail "expected Crypto_error"
    | exception Enc_exec.Crypto_error m -> m
  in
  let warm = [| Value.Int 1; Value.Int 2; Value.Str "abcdX"; Value.Float 0.125 |] in
  List.iter
    (fun name ->
      ignore
        (encrypt_column (Enc_exec.of_store st det_ope_clusters) name (Column.Values warm)))
    [ "p"; "o" ];
  List.iter
    (fun (name, cells, expected) ->
      let label = Printf.sprintf "cluster %s, %d cells" name (Array.length cells) in
      Alcotest.(check string) (label ^ ": cold") expected (outcome (cold ()) name cells);
      Alcotest.(check string) (label ^ ": warm store") expected
        (outcome (Enc_exec.of_store st det_ope_clusters) name cells);
      Alcotest.(check string) (label ^ ": row path") expected (row_path name cells))
    [ ( "o",
        Array.append warm [| Value.Int (1 lsl 40); enc |],
        Printf.sprintf "cent-scaled value %d outside the OPE plaintext domain"
          (100 lsl 40) );
      ( "o",
        Array.append warm [| enc; Value.Int (1 lsl 40) |],
        "attribute o is already encrypted" );
      ( "o",
        Array.append warm [| Value.Null; Value.Float nan |],
        "cannot encode non-finite float nan as cents" );
      ( "u",
        Array.append warm [| Value.Float 1e17 |],
        "float 0x1.6345785d8ap+56 overflows the cent encoding" );
      ("p", Array.append warm [| Value.Null; enc |], "attribute p is already encrypted") ]

(* The same plaintext under two cluster ids, or under two seeds, seals to
   different bytes; a store derives each key once, so a second pass
   derives none and gives the same bytes. *)
let test_sealed_isolation () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ())
  @@ fun () ->
  let col = Column.Strs [| "abcdX"; "abcdY"; "abcdX" |] in
  let derived f =
    let before = Obs.counter "enc_exec.keys.derived" in
    let out = f () in
    (out, Obs.counter "enc_exec.keys.derived" - before)
  in
  let st seed = Enc_exec.store (C.Keyring.create ~seed ()) in
  List.iter
    (fun (a, b) ->
      let s7 = st 7L in
      let ctx s = Enc_exec.of_store s det_ope_clusters in
      let first, k1 = derived (fun () -> encrypt_column (ctx s7) a col) in
      let again, k2 = derived (fun () -> encrypt_column (ctx s7) a col) in
      let other_id = encrypt_column (ctx s7) b col in
      let other_seed, k3 = derived (fun () -> encrypt_column (ctx (st 8L)) a col) in
      let payloads vs =
        Array.map (function Value.Enc c -> c.Value.payload | _ -> "") vs
      in
      Alcotest.(check bool) (a ^ ": a second pass, same bytes") true (first = again);
      Alcotest.(check int) (a ^ ": a second pass derives no key") 0 k2;
      Alcotest.(check int) (a ^ ": a fresh store derives its keys") k1 k3;
      Alcotest.(check bool) (a ^ ": the first pass derives") true (k1 > 0);
      Alcotest.(check bool) (a ^ " vs " ^ b ^ ": bytes differ") true
        (Array.for_all2 ( <> ) (payloads first) (payloads other_id));
      Alcotest.(check bool) (a ^ " under two seeds: bytes differ") true
        (Array.for_all2 ( <> ) (payloads first) (payloads other_seed)))
    [ ("p", "q"); ("o", "u") ]

(* A column with more distinct values than one memo table used to hold
   (2^16) seals to the schemes' own bytes. *)
let test_sealed_large_column () =
  let n = (1 lsl 16) + 100 in
  let seed = 7L in
  let st = Enc_exec.store (C.Keyring.create ~seed ()) in
  let keyring = C.Keyring.create ~seed () in
  let p = List.hd det_ope_clusters in
  let col = Column.Ints (Array.init n (fun i -> (i * 7919) mod n)) in
  let expected = Array.map (direct keyring p) (Column.to_values col) in
  List.iter
    (fun pass ->
      Alcotest.(check bool)
        (Printf.sprintf "pass %d: %d distinct values, same bytes" pass n)
        true
        (encrypt_column (Enc_exec.of_store st det_ope_clusters) "p" col = expected))
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
    [ gen_plain_column;
      map (fun a -> Column.Floats a)
        (array_size n (oneofl [ nan; -0.0; 0.0; infinity; neg_infinity; 1e300 ]));
      map (fun a -> Column.Ints a) (array_size n (oneofl [ max_int; min_int; 0 ]));
      map (fun a -> Column.Values a) (array_size n (oneofl (Array.to_list edge_cells))) ]

let one_column col =
  Table.of_columns ~nrows:(Column.length col) [ attr "r" ] [| col |]

(* Every reader of [sealed] sees [want], the eager cells: cell by cell,
   whole-column, through row and column movers, as table rows, as CSV
   and as a byte count. *)
let every_path_eager sealed want =
  let n = Array.length want in
  let idx = Array.init (2 * n) (fun k -> (k * 7) mod max n 1) in
  let pos = n / 3 and len = n - (n / 3) in
  let plain_table = one_column (Column.Values want) in
  Array.for_all2 ( = ) want (Array.init n (Column.get sealed))
  && Column.to_values sealed = want
  && Column.to_values (Column.gather sealed idx) = Array.map (fun k -> want.(k)) idx
  && Column.to_values (Column.sub sealed pos len) = Array.sub want pos len
  && Table.rows (one_column sealed) = Table.rows plain_table
  && Csv.to_string (one_column sealed) = Csv.to_string plain_table
  && Table.byte_size (one_column sealed) = Table.byte_size plain_table
let prop_sealed_bytes =
  QCheck.Test.make ~count:150 ~name:"sealed: every path = eager rnd"
    (QCheck.make ~print:print_column gen_sealed_input)
    (fun col ->
      let ctx = rnd_ctx_of () in
      every_path_eager (seal ctx col) (eager ctx col))

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

(* Encrypting a sealed column (rnd, det or OPE) raises "already
   encrypted" where its materialized cells would, after the errors of
   the columns before it;
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
    List.iter
      (fun sealer ->
        let sealed =
          match
            Enc_exec.encrypt_batch ctx ~rng_root:(rnd_root ctx)
              ~enc:[ (attr sealer, Column.Values cells) ]
          with
          | [ (Column.Sealed _ as out) ] -> out
          | _ -> Alcotest.failf "a %s column did not come back sealed" sealer
        in
        let boxed = Column.Values (Column.to_values sealed) in
        List.iter
          (fun target ->
            let label =
              Printf.sprintf "%s, sealed under %s, under %s" label sealer target
            in
            let enc col = before @ [ (attr target, col) ] in
            let got = outcome (enc sealed) and today = outcome (enc boxed) in
            Alcotest.(check bool) label true (got = today);
            match (expected target, got) with
            | Some m, Error g -> Alcotest.(check string) (label ^ ": message") m g
            | None, Ok _ -> ()
            | Some _, Ok _ -> Alcotest.failf "%s: no error" label
            | None, Error g -> Alcotest.failf "%s: raised %s" label g)
          [ "d"; "o"; "p"; "q" ])
      [ "r"; "d"; "o" ]
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

(* --- sealed det and OPE columns: every reader, every comparison ------- *)

let det_ope_ctx () = ctx_of [ ("d", C.Scheme.Det); ("o", C.Scheme.Ope) ]

let outcome f =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* a det or OPE column through [encrypt_batch], or its error *)
let sealed_under ctx name col =
  outcome (fun () ->
      match
        Enc_exec.encrypt_batch ctx ~rng_root:(Enc_exec.node_rng ctx 1)
          ~enc:[ (attr name, col) ]
      with
      | [ (Column.Sealed _ as out) ] -> out
      | _ -> Alcotest.failf "a %s column did not come back sealed" name)

let prop_sealed_det_ope_bytes =
  QCheck.Test.make ~count:150 ~name:"sealed: every path = eager det/ope"
    (QCheck.make ~print:print_column gen_sealed_input)
    (fun col ->
      let ctx = det_ope_ctx () in
      List.for_all
        (fun name ->
          let eager () =
            Array.map (Enc_exec.encrypt_value ctx (attr name)) (Column.to_values col)
          in
          match (sealed_under ctx name col, outcome eager) with
          | Ok sealed, Ok want -> every_path_eager sealed want
          | Error got, Error want -> String.equal got want
          | _ -> false)
        [ "d"; "o" ])

(* Decrypting a sealed det/OPE column runs no cipher and gives what
   decrypting its bytes gives, bit for bit (an OPE [-0.0] opens as
   [0.0], as its cent image says). *)
let prop_sealed_det_ope_decrypt =
  QCheck.Test.make ~count:150 ~name:"sealed: det/ope decrypt = decrypting the bytes"
    (QCheck.make ~print:print_column gen_sealed_input)
    (fun col ->
      let ctx = det_ope_ctx () in
      List.for_all
        (fun name ->
          match sealed_under ctx name col with
          | Error _ -> true
          | Ok sealed ->
              let opened = Column.to_values (Enc_exec.decrypt_batch ctx sealed) in
              let by_bytes =
                Column.to_values
                  (Enc_exec.decrypt_batch ctx (Column.Values (Column.to_values sealed)))
              in
              Array.for_all2 bit_equal by_bytes opened)
        [ "d"; "o" ])

(* The cells whose comparisons are traps: Int 4 / Float 4.0, cent ties
   and sub-cent floats, the signed zeros, the two NaNs, strings tied on
   their 4-byte prefix, mixed type classes, Null. *)
let trap_cells =
  [| Value.Int 4; Value.Float 4.0; Value.Float 4.001; Value.Float 4.004;
     Value.Float 4.006; Value.Float (-0.0); Value.Float 0.0; Value.Float nan;
     Value.Float (-.nan); Value.Str "abcdX"; Value.Str "abcdY"; Value.Str "abcd";
     Value.Str ""; Value.Date 4; Value.Bool true; Value.Bool false; Value.Int (-5);
     Value.Null |]

let gen_trap = QCheck.Gen.oneofl (Array.to_list trap_cells)
let ops = Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ]

let cluster id scheme names =
  { Authz.Plan_keys.id;
    attrs = Attr.Set.of_list (List.map attr names);
    scheme;
    holders = Authz.Subject.Set.empty }

(* [a] and [b] under one key, under two keys of one scheme, or under two
   schemes *)
let pair_clusters scheme = function
  | `Shared -> [ cluster "k" scheme [ "a"; "b" ] ]
  | `Two_keys -> [ cluster "ka" scheme [ "a" ]; cluster "kb" scheme [ "b" ] ]
  | `Two_schemes ->
      let other = if scheme = C.Scheme.Det then C.Scheme.Ope else C.Scheme.Det in
      [ cluster "ka" scheme [ "a" ]; cluster "kb" other [ "b" ] ]

let pair_ctx scheme keys =
  Enc_exec.make (C.Keyring.create ~seed:7L ()) (pair_clusters scheme keys)

let print_pair (scheme, keys, va, vb) =
  Printf.sprintf "%s %s: %s vs %s" (C.Scheme.name scheme)
    (match keys with
    | `Shared -> "one key"
    | `Two_keys -> "two keys"
    | `Two_schemes -> "two schemes")
    (Value.to_string va) (Value.to_string vb)

(* one-cell columns [a] and [b], sealed, and [Eval.predicate] over them *)
let seal_pair ctx va vb =
  Enc_exec.encrypt_batch ctx ~rng_root:(Enc_exec.node_rng ctx 1)
    ~enc:[ (attr "a", Column.Values [| va |]); (attr "b", Column.Values [| vb |]) ]

let eval_atom ctx cols atom =
  outcome (fun () ->
      Eval.predicate ~ctx
        (fun x -> (List.assoc (Attr.name x) cols, fun () -> 0))
        [ [ atom ] ] ())

(* Every comparison of two sealed cells — with each other, with a
   plaintext constant, with a boxed ciphertext — gives what comparing
   their ciphertexts gives, errors included; the keys a join and a
   group-by bucket them by agree with ciphertext equality and payload
   equality. *)
let prop_sealed_comparisons =
  QCheck.Test.make ~count:600 ~name:"sealed: det/ope comparisons = ciphertext comparisons"
    (QCheck.make ~print:print_pair
       QCheck.Gen.(
         quad
           (oneofl [ C.Scheme.Det; C.Scheme.Ope ])
           (frequency
              [ (6, return `Shared); (1, return `Two_keys); (1, return `Two_schemes) ])
           gen_trap gen_trap))
    (fun (scheme, keys, va, vb) ->
      let ctx = pair_ctx scheme keys in
      match seal_pair ctx va vb with
      | exception Enc_exec.Crypto_error _ -> QCheck.assume_fail ()
      | [ ca; cb ] ->
          let boxed c = Column.Values (Column.to_values c) in
          let a = attr "a" and b = attr "b" in
          let ea = Column.get ca 0 and eb = Column.get cb 0 in
          let want f = outcome (fun () -> f (Eval.compare_values ~ctx)) in
          let cmp_ab op = Predicate.Cmp_attr (a, op, b) in
          let sealed_ops =
            List.for_all
              (fun op ->
                let cells = [ ("a", ca); ("b", cb) ] in
                let pair = want (fun cmp -> cmp op ea eb) in
                eval_atom ctx cells (cmp_ab op) = pair
                && eval_atom ctx [ ("a", ca); ("b", boxed cb) ] (cmp_ab op) = pair
                && eval_atom ctx [ ("a", boxed ca); ("b", cb) ] (cmp_ab op) = pair
                && eval_atom ctx cells (Predicate.Cmp_const (a, op, vb))
                   = want (fun cmp -> cmp op ea vb)
                && eval_atom ctx cells (Predicate.Cmp_const (b, op, va))
                   = want (fun cmp -> cmp op eb va)
                && eval_atom ctx cells (Predicate.In_list (a, [ vb; va ]))
                   = want (fun cmp -> List.exists (cmp Predicate.Eq ea) [ vb; va ]))
              ops
          in
          let keys_agree =
            match (ca, cb, ea, eb) with
            | Column.Sealed sa, Column.Sealed sb, Value.Enc xa, Value.Enc xb ->
                let same_payload = Value.equal ea eb in
                let cipher_equal =
                  xa.Value.scheme = xb.Value.scheme
                  && xa.Value.key_id = xb.Value.key_id
                  && if xa.Value.scheme = "ope" then Enc_exec.ope_equal xa xb
                     else same_payload
                in
                let key ~join s = Enc_exec.sealed_key ~join s 0 in
                Bool.equal cipher_equal (key ~join:true sa = key ~join:true sb)
                && (keys <> `Shared
                   || Bool.equal same_payload (key ~join:false sa = key ~join:false sb))
                && (keys <> `Shared || xa.Value.scheme <> "ope"
                   || outcome (fun () -> compare (Enc_exec.sealed_order sa 0 sb 0) 0)
                      = outcome (fun () -> compare (Enc_exec.ope_compare xa xb) 0))
            | _ -> true
          in
          sealed_ops && keys_agree
      | _ -> false)

(* Tables of trap cells through every operator that compares cells —
   selections against each other, constants and boxed ciphertext, hash
   joins (sealed against sealed and against boxed), group-by, order-by,
   min/max — against the eager row oracle: the same rows, CSV and byte
   size, or the same error. *)
let agrees_with_oracle ctx tables plan =
  let view f =
    match f () with
    | t -> Ok (List.map Array.to_list (Table.rows t), Csv.to_string t, Table.byte_size t)
    | exception e -> Error (Printexc.to_string e)
  in
  let context () = Exec.context ~crypto:(ctx ()) tables in
  match
    ( view (fun () -> Row_oracle.run (context ()) plan),
      view (fun () -> Exec.run (context ()) plan) )
  with
  | Ok (ra, ca, ba), Ok (rb, cb, bb) ->
      List.equal (List.equal bit_equal) ra rb && String.equal ca cb && ba = bb
  | Error a, Error b -> String.equal a b
  | _ -> false

let trap_schema =
  Schema.make ~name:"T" ~owner:"H"
    [ ("a", Schema.Tfloat); ("b", Schema.Tfloat); ("g", Schema.Tint); ("x", Schema.Tfloat) ]

let trap_schema' = Schema.make ~name:"U" ~owner:"H" [ ("b", Schema.Tfloat) ]
let boxed_schema = Schema.make ~name:"V" ~owner:"H" [ ("x", Schema.Tfloat) ]

(* T(a, b, g, x), U(b) and V(x), where each [x] is a [b] encrypted
   eagerly under [a]'s cluster: boxed ciphertext *)
let trap_tables ctx rows rows' =
  let x v = Enc_exec.encrypt_value ctx (attr "a") v in
  [ ( "T",
      Table.create (Schema.attr_list trap_schema)
        (List.mapi (fun i (va, vb) -> [| va; vb; Value.Int (i mod 2); x vb |]) rows) );
    ("U", Table.create [ attr "b" ] (List.map (fun v -> [| v |]) rows'));
    ("V", Table.create [ attr "x" ] (List.map (fun v -> [| x v |]) rows')) ]

let a = attr "a" and b = attr "b" and g = attr "g" and x = attr "x"
let where atom p = Plan.select (Predicate.conj [ atom ]) p
let enc names p = Plan.encrypt (Attr.Set.of_list (List.map attr names)) p
let enc_ab = enc [ "a"; "b" ] (Plan.base trap_schema)
let enc_a_g = Plan.project (Attr.Set.of_list [ a; g ]) (enc [ "a" ] (Plan.base trap_schema))
let count_by keys p =
  Plan.group_by (Attr.Set.of_list keys) [ Aggregate.make Aggregate.Count_star ] p

let trap_plans ~const =
  List.concat_map
    (fun op ->
      [ where (Predicate.Cmp_attr (a, op, b)) enc_ab;
        where (Predicate.Cmp_const (a, op, const)) enc_ab;
        where (Predicate.Cmp_attr (a, op, x)) (enc [ "a" ] (Plan.base trap_schema)) ])
    ops
  @ [ Plan.join (Predicate.conj [ Predicate.Cmp_attr (a, Predicate.Eq, b) ])
        enc_a_g (enc [ "b" ] (Plan.base trap_schema'));
      Plan.join (Predicate.conj [ Predicate.Cmp_attr (a, Predicate.Eq, x) ])
        enc_a_g (Plan.base boxed_schema);
      where (Predicate.In_list (a, [ const; Value.Int 4 ])) enc_ab;
      count_by [ a ] enc_ab;
      count_by [ a; b ] enc_ab;
      Plan.order_by [ (a, Plan.Asc); (g, Plan.Desc) ] enc_ab;
      Plan.order_by [ (b, Plan.Desc) ] enc_ab;
      Plan.group_by (Attr.Set.singleton g)
        [ Aggregate.make (Aggregate.Min a); Aggregate.make (Aggregate.Max b);
          Aggregate.make (Aggregate.Count a) ]
        enc_ab;
      Plan.decrypt (Attr.Set.of_list [ a; b ])
        (where (Predicate.Cmp_attr (a, Predicate.Eq, b)) enc_ab) ]

let prop_sealed_operators =
  QCheck.Test.make ~count:300 ~name:"sealed: det/ope operators = eager oracle"
    (QCheck.make
       ~print:(fun (scheme, rows, rows', const) ->
         let cells vs = String.concat "; " (List.map Value.to_string vs) in
         Printf.sprintf "%s T=[%s] U=[%s] const %s" (C.Scheme.name scheme)
           (String.concat "; "
              (List.map (fun (va, vb) -> cells [ va ] ^ "," ^ cells [ vb ]) rows))
           (cells rows') (Value.to_string const))
       QCheck.Gen.(
         quad
           (oneofl [ C.Scheme.Det; C.Scheme.Ope ])
           (list_size (int_range 0 7) (pair gen_trap gen_trap))
           (list_size (int_range 0 5) gen_trap)
           gen_trap))
    (fun (scheme, rows, rows', const) ->
      let ctx () = pair_ctx scheme `Shared in
      match trap_tables (ctx ()) rows rows' with
      | exception Enc_exec.Crypto_error _ -> QCheck.assume_fail ()
      | tables -> List.for_all (agrees_with_oracle ctx tables) (trap_plans ~const))

(* The traps one by one, with what the ciphertexts say. *)
let test_sealed_traps () =
  let check scheme keys va op vb expected =
    let ctx = pair_ctx scheme keys in
    let got =
      eval_atom ctx
        (List.combine [ "a"; "b" ] (seal_pair ctx va vb))
        (Predicate.Cmp_attr (a, op, b))
    in
    let label =
      Printf.sprintf "%s, %s" (print_pair (scheme, keys, va, vb))
        (match op with Predicate.Eq -> "=" | _ -> "<")
    in
    let contains m g =
      match Str.search_forward (Str.regexp_string m) g 0 with
      | _ -> true
      | exception Not_found -> false
    in
    match (expected, got) with
    | Ok e, Ok g -> Alcotest.(check bool) label e g
    | Error m, Error g -> Alcotest.(check bool) (label ^ " raises " ^ m) true (contains m g)
    | _, Ok g -> Alcotest.failf "%s: got %b" label g
    | _, Error g -> Alcotest.failf "%s: raised %s" label g
  in
  let det = C.Scheme.Det and ope = C.Scheme.Ope in
  let eq = Predicate.Eq and lt = Predicate.Lt in
  let f v = Value.Float v and s v = Value.Str v in
  check det `Shared (Value.Int 4) eq (f 4.0) (Ok false);
  check ope `Shared (Value.Int 4) eq (f 4.0) (Ok true);
  check ope `Shared (Value.Int 4) eq (f 4.001) (Ok true);
  check ope `Shared (Value.Int 4) lt (f 4.006) (Ok true);
  check det `Shared (f (-0.0)) eq (f 0.0) (Ok false);
  check ope `Shared (f (-0.0)) eq (f 0.0) (Ok true);
  check det `Shared (f nan) eq (f (-.nan)) (Ok false);
  check det `Shared (f nan) eq (f nan) (Ok true);
  check det `Shared (f 4.0) lt (f 5.0)
    (Error "deterministic encryption supports only equality");
  check ope `Shared (s "abcdX") eq (s "abcdY") (Ok false);
  check ope `Shared (s "abcdX") lt (s "abcdY") (Error "OPE order undefined");
  check ope `Shared (s "abcdX") lt (s "abce") (Ok true);
  check ope `Shared (Value.Int 4) lt (Value.Date 4) (Error "incomparable OPE ciphertexts");
  check ope `Shared (Value.Int 4) eq (Value.Date 4) (Ok false);
  check det `Two_keys (Value.Int 4) eq (Value.Int 4)
    (Error "comparison of ciphertexts under different schemes/keys");
  check ope `Two_schemes (Value.Int 4) eq (Value.Int 4)
    (Error "comparison of ciphertexts under different schemes/keys");
  check det `Two_keys Value.Null eq (Value.Int 4) (Ok false);
  check ope `Shared (Value.Int 4) eq Value.Null (Ok false);
  (* all-Null columns through every operator *)
  List.iter
    (fun scheme ->
      let ctx () = pair_ctx scheme `Shared in
      let nulls = [ (Value.Null, Value.Null); (Value.Null, Value.Null) ] in
      let tables = trap_tables (ctx ()) nulls [ Value.Null ] in
      Alcotest.(check bool)
        (C.Scheme.name scheme ^ ": all-Null columns = eager oracle")
        true
        (List.for_all (agrees_with_oracle ctx tables) (trap_plans ~const:(Value.Int 4))))
    [ det; ope ]

(* Comparing sealed cells, joining and grouping by them, and OPE
   order-by and min/max produce no bytes; a sealed cell meeting a boxed
   ciphertext is materialized, and so is a det key that orders rows. *)
let test_sealed_det_ope_counters () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ())
  @@ fun () ->
  let made () =
    Obs.counter "enc_exec.det.materialized" + Obs.counter "enc_exec.ope.materialized"
  in
  let rows =
    [ (Value.Int 4, Value.Float 4.0); (Value.Null, Value.Int 3);
      (Value.Str "abcdX", Value.Null); (Value.Int 4, Value.Int 4) ]
  in
  let g1 =
    where (Predicate.Cmp_const (g, Predicate.Eq, Value.Int 1)) (Plan.base trap_schema)
  in
  List.iter
    (fun scheme ->
      let ctx () = pair_ctx scheme `Shared in
      let tables = trap_tables (ctx ()) rows [ Value.Int 4; Value.Null; Value.Float 4.0 ] in
      let run plan = ignore (Exec.run (Exec.context ~crypto:(ctx ()) tables) plan) in
      let name = C.Scheme.name scheme in
      Obs.reset ();
      List.iter run
        [ where (Predicate.Cmp_attr (a, Predicate.Eq, b)) enc_ab;
          where (Predicate.Cmp_const (a, Predicate.Neq, Value.Int 4)) enc_ab;
          Plan.join (Predicate.conj [ Predicate.Cmp_attr (a, Predicate.Eq, b) ])
            enc_a_g (enc [ "b" ] (Plan.base trap_schema'));
          count_by [ a; b ] enc_ab ];
      Alcotest.(check int) (name ^ ": comparing produces no bytes") 0 (made ());
      Alcotest.(check bool) (name ^ ": cells sealed") true
        (Obs.counter ("enc_exec." ^ name ^ ".sealed") > 0);
      if scheme = C.Scheme.Ope then begin
        (* rows 1 and 3: Null and Int 4 *)
        run (Plan.order_by [ (a, Plan.Asc) ] (enc [ "a" ] g1));
        run
          (Plan.group_by (Attr.Set.singleton g)
             [ Aggregate.make (Aggregate.Max a) ]
             (enc [ "a" ] g1));
        Alcotest.(check int) "ope: order-by and max produce no bytes" 0 (made ())
      end
      else begin
        run (Plan.order_by [ (b, Plan.Asc) ] enc_ab);
        Alcotest.(check int) "det: an order-by key is materialized once" 3 (made ())
      end;
      Obs.reset ();
      run
        (where (Predicate.Cmp_attr (a, Predicate.Eq, x)) (enc [ "a" ] (Plan.base trap_schema)));
      Alcotest.(check int)
        (name ^ ": the live cells meeting boxed ciphertext are materialized") 2 (made ()))
    [ C.Scheme.Det; C.Scheme.Ope ]

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

(* --- batched counts and constants -------------------------------------- *)

let outcome f =
  match f () with
  | vs -> Ok (Array.to_list vs)
  | exception e -> Error (Printexc.to_string e)

(* [encrypt_each] is [encrypt_value] cell by cell, byte for byte and
   error for error: cell [k] draws from generator [k], and OPE cells are
   encoded in one tree walk. *)
let test_encrypt_each () =
  let x = attr "x" in
  let cipher = Enc_exec.encrypt_value (Lazy.force det_ctx) x (Value.Int 1) in
  let cases =
    [ [| Value.Int 1; Value.Int 5; Value.Int 1; Value.Int 1000; Value.Int 0 |];
      [| Value.Null; Value.Int 3; Value.Null; Value.Float 2.5; Value.Str "abcdX" |];
      [| Value.Int 2; Value.Int (1 lsl 40); cipher |];
      [| Value.Int 2; cipher; Value.Int (1 lsl 40) |];
      [| Value.Null; Value.Null |];
      [||] ]
  in
  List.iter
    (fun (name, ctx) ->
      let ctx = Lazy.force ctx in
      let rng k = C.Prng.derive (Enc_exec.node_rng ctx 3) k in
      List.iteri
        (fun i vs ->
          let label = Printf.sprintf "%s case %d" name i in
          Alcotest.(check bool) label true
            (outcome (fun () -> Array.mapi (fun k v -> Enc_exec.encrypt_value ~rng:(rng k) ctx x v) vs)
            = outcome (fun () -> Enc_exec.encrypt_each ctx x ~rng vs)))
        cases)
    [ ("det", det_ctx); ("ope", ope_ctx); ("rnd", rnd_ctx); ("phe", phe_ctx) ]

(* [const_ciphers] is [const_cipher] constant by constant, a constant
   with no image failing alone. *)
let test_const_ciphers () =
  let consts =
    [| Value.Int 4; Value.Float 2.5; Value.Int (1 lsl 40); Value.Str "abcdX";
       Value.Bool true; Value.Date 19000 |]
  in
  List.iter
    (fun (name, ctx) ->
      let ctx = Lazy.force ctx in
      match Enc_exec.encrypt_value ctx (attr "x") (Value.Int 3) with
      | Value.Enc sample ->
          let one v =
            match Enc_exec.const_cipher ctx sample v with
            | c -> Ok c
            | exception e -> Error (Printexc.to_string e)
          in
          Alcotest.(check bool) name true
            (Array.map one consts
            = Array.map (Result.map_error Printexc.to_string)
                (Enc_exec.const_ciphers ctx sample consts))
      | _ -> Alcotest.fail "expected a ciphertext")
    [ ("det", det_ctx); ("ope", ope_ctx); ("rnd", rnd_ctx) ]

(* Encrypted counts come out of a group-by in one batch per aggregate;
   their bytes are the row oracle's, which encrypts them one group at a
   time, two counts of one group drawing from the group's one generator
   in aggregate order. The last group's operand is all Null, so its
   counts stay plaintext. *)
let test_group_count_bytes () =
  let g = attr "g" and x = attr "x" in
  let schema = Schema.make ~name:"T" ~owner:"H" [ ("g", Schema.Tint); ("x", Schema.Tint) ] in
  let rows =
    List.init 40 (fun i -> [| Value.Int (i mod 7); (if i mod 7 = 6 then Value.Null else Value.Int i) |])
  in
  let tables = [ ("T", Table.of_schema schema rows) ] in
  let plan =
    Plan.group_by (Attr.Set.singleton g)
      [ Aggregate.make_named (Aggregate.Count x) "n1";
        Aggregate.make_named (Aggregate.Count x) "n2";
        Aggregate.make Aggregate.Count_star ]
      (Plan.encrypt (Attr.Set.singleton x) (Plan.base schema))
  in
  List.iter
    (fun scheme ->
      let context () = Exec.context ~crypto:(ctx_of [ ("x", scheme) ]) tables in
      Alcotest.(check bool) (C.Scheme.name scheme) true
        (Table.rows (Exec.run (context ()) plan) = Table.rows (Row_oracle.run (context ()) plan)))
    [ C.Scheme.Det; C.Scheme.Ope; C.Scheme.Rnd; C.Scheme.Phe ]

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
      ( "det-ope bytes",
        [ QCheck_alcotest.to_alcotest prop_sealed_direct;
          ("encrypt-time errors in row order", `Quick, test_sealed_errors);
          ("no key shared across cluster ids or seeds", `Quick,
           test_sealed_isolation);
          ("more than 2^16 distinct values", `Quick,
           test_sealed_large_column) ] );
      ( "sealed",
        [ QCheck_alcotest.to_alcotest prop_sealed_bytes;
          QCheck_alcotest.to_alcotest prop_sealed_no_plaintext;
          QCheck_alcotest.to_alcotest prop_sealed_decrypt;
          ("re-encrypting raises as before", `Quick, test_sealed_reencrypt);
          ("only reads produce bytes", `Quick, test_sealed_counters);
          QCheck_alcotest.to_alcotest prop_sealed_det_ope_bytes;
          QCheck_alcotest.to_alcotest prop_sealed_det_ope_decrypt;
          QCheck_alcotest.to_alcotest prop_sealed_comparisons;
          QCheck_alcotest.to_alcotest prop_sealed_operators;
          ("det/ope traps, one by one", `Quick, test_sealed_traps);
          ("det/ope: comparisons produce no bytes", `Quick, test_sealed_det_ope_counters);
          ("phe_sum: malformed payloads", `Quick, test_phe_sum_malformed) ] );
      ( "batches",
        [ ("encrypt_each = encrypt_value per cell", `Quick, test_encrypt_each);
          ("const_ciphers = const_cipher per constant", `Quick, test_const_ciphers);
          ("encrypted group counts: the row oracle's bytes", `Quick,
           test_group_count_bytes) ] ) ]
