(* Relational-algebra substrate: values, schemas, predicates, plan
   construction invariants, printers. *)

open Relalg

let a = Attr.make

(* --- values ----------------------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "int order" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "mixed numeric" true
    (Value.compare (Value.Int 2) (Value.Float 1.5) > 0);
  Alcotest.(check bool) "null first" true
    (Value.compare Value.Null (Value.Int (-100)) < 0);
  Alcotest.(check bool) "int/float equal" true
    (Value.equal (Value.Int 3) (Value.Float 3.0));
  match Value.compare (Value.Int 1) (Value.Str "x") with
  | exception Value.Incomparable _ -> ()
  | _ -> Alcotest.fail "expected Incomparable"

let test_value_dates () =
  let d1 = Value.date_of_string "1992-01-01" in
  let d2 = Value.date_of_string "1998-08-02" in
  Alcotest.(check bool) "dates ordered" true (Value.compare d1 d2 < 0);
  (match (d1, d2) with
  | Value.Date x, Value.Date y ->
      Alcotest.(check int) "span in days" 2405 (y - x)
  | _ -> Alcotest.fail "not dates");
  Alcotest.(check bool) "epoch is zero" true
    (Value.equal (Value.date_of_string "1970-01-01") (Value.Date 0));
  match Value.date_of_string "not-a-date" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure"

(* --- attr sets -------------------------------------------------------- *)

let test_attr_set_printing () =
  Alcotest.(check string) "single letters concatenate" "DST"
    (Attr.Set.to_string (Attr.Set.of_names [ "S"; "D"; "T" ]));
  Alcotest.(check string) "long names comma-separate" "l_orderkey,o_orderkey"
    (Attr.Set.to_string (Attr.Set.of_names [ "o_orderkey"; "l_orderkey" ]))

(* --- schema ------------------------------------------------------------ *)

let test_schema_validation () =
  (match Schema.make ~name:"R" ~owner:"A" [ ("x", Schema.Tint); ("x", Schema.Tint) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate column accepted");
  match
    Schema.make ~name:"R" ~owner:"A"
      ~storage:(Schema.outsourced ~host:"W" ~encrypted:[ "nope" ])
      [ ("x", Schema.Tint) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign storage column accepted"

(* --- predicates --------------------------------------------------------- *)

let test_like_matching () =
  let check pat s expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %s" s pat)
      expected
      (Predicate.like_matches ~pattern:pat s)
  in
  check "%BRASS" "SMALL BRASS" true;
  check "%BRASS" "BRASSY" false;
  check "PROMO%" "PROMO POLISHED" true;
  check "%green%" "dark green cyan" true;
  check "a_c" "abc" true;
  check "a_c" "ac" false;
  check "%" "" true;
  check "a%b%c" "aXXbYYc" true;
  check "a%b%c" "acb" false

let test_predicate_accessors () =
  let p =
    [ [ Predicate.Cmp_attr (a "x", Predicate.Eq, a "y") ];
      [ Predicate.Cmp_const (a "z", Predicate.Lt, Value.Int 3);
        Predicate.Like (a "w", "q%") ] ]
  in
  Alcotest.(check int) "pairs" 1 (List.length (Predicate.attr_pairs p));
  Alcotest.(check string) "const attrs" "wz"
    (Attr.Set.to_string (Predicate.const_attrs p));
  Alcotest.(check string) "all attrs" "wxyz"
    (Attr.Set.to_string (Predicate.attrs p))

(* --- plan construction invariants --------------------------------------- *)

let r1 = Schema.make ~name:"R1" ~owner:"A" [ ("x", Schema.Tint); ("y", Schema.Tint) ]
let r2 = Schema.make ~name:"R2" ~owner:"B" [ ("z", Schema.Tint) ]
let r2_clash = Schema.make ~name:"R2c" ~owner:"B" [ ("x", Schema.Tint) ]

let test_plan_checks () =
  let b1 = Plan.base r1 and b2 = Plan.base r2 in
  (match Plan.project (Attr.Set.of_names [ "nope" ]) b1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign projection accepted");
  (match Plan.product (Plan.base r1) (Plan.base r2_clash) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping schemas accepted");
  (match
     Plan.join (Predicate.conj [ Predicate.Cmp_const (a "x", Predicate.Eq, Value.Int 1) ]) b1 b2
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pairless join accepted");
  (match Plan.udf "f" (Attr.Set.of_names [ "x" ]) (a "z") b1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "udf output not among inputs accepted");
  (* encrypt of nothing is the identity *)
  let e = Plan.encrypt Attr.Set.empty b1 in
  Alcotest.(check int) "empty encrypt = id" (Plan.id b1) (Plan.id e)

let test_plan_traversals () =
  let plan =
    Plan.join
      (Predicate.conj [ Predicate.Cmp_attr (a "x", Predicate.Eq, a "z") ])
      (Plan.select
         (Predicate.conj [ Predicate.Cmp_const (a "y", Predicate.Gt, Value.Int 0) ])
         (Plan.base r1))
      (Plan.base r2)
  in
  Alcotest.(check int) "size" 4 (Plan.size plan);
  Alcotest.(check int) "height" 3 (Plan.height plan);
  Alcotest.(check int) "two bases" 2 (List.length (Plan.base_relations plan));
  (* post-order: children before parents *)
  let order = List.map Plan.id (Plan.nodes plan) in
  Alcotest.(check bool) "root last" true
    (List.nth order (List.length order - 1) = Plan.id plan);
  Alcotest.(check string) "schema" "xyz"
    (Attr.Set.to_string (Plan.schema plan));
  Alcotest.(check bool) "find self" true (Plan.find plan (Plan.id plan) <> None);
  Alcotest.(check bool) "strip_crypto idempotent on plain plans" true
    (Plan.equal_shape plan (Plan.strip_crypto plan))

let test_printers () =
  let plan =
    Plan.group_by (Attr.Set.of_names [ "x" ])
      [ Aggregate.make (Aggregate.Sum (a "y")) ]
      (Plan.base r1)
  in
  let ascii = Plan_printer.to_ascii plan in
  Alcotest.(check bool) "ascii mentions gamma" true
    (try ignore (Str.search_forward (Str.regexp_string "γ") ascii 0); true
     with Not_found -> false);
  let dot = Plan_printer.to_dot plan in
  Alcotest.(check bool) "dot is a digraph" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph")

(* --- table -------------------------------------------------------------- *)

let test_table_ops () =
  let t =
    Engine.Table.of_schema r1 [ [| Value.Int 1; Value.Int 2 |]; [| Value.Int 3; Value.Int 4 |] ]
  in
  Alcotest.(check int) "cardinality" 2 (Engine.Table.cardinality t);
  let sel = Engine.Table.select_columns t [ a "y" ] in
  Alcotest.(check int) "one column" 1 (List.length (Engine.Table.attrs sel));
  let gathered = Engine.Table.gather t [| 1; 1; 0 |] in
  Alcotest.(check (list int)) "gather rows" [ 3; 3; 1 ]
    (List.map
       (fun r -> match r.(0) with Value.Int i -> i | _ -> -1)
       (Engine.Table.rows gathered));
  (* bag equality is column-order and row-order insensitive *)
  let t' =
    Engine.Table.create [ a "y"; a "x" ]
      [ [| Value.Int 4; Value.Int 3 |]; [| Value.Int 2; Value.Int 1 |] ]
  in
  Alcotest.(check bool) "equal bags modulo order" true (Engine.Table.equal_bag t t');
  match Engine.Table.create [ a "x" ] [ [| Value.Int 1; Value.Int 2 |] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

(* --- eval negative paths ------------------------------------------------ *)

let test_eval_encrypted_errors () =
  let keyring = Mpq_crypto.Keyring.create ~seed:4L () in
  let ctx =
    Engine.Enc_exec.of_schemes keyring
      [ ("x", Mpq_crypto.Scheme.Rnd); ("y", Mpq_crypto.Scheme.Det);
        ("z", Mpq_crypto.Scheme.Det) ]
  in
  let enc attr v = Engine.Enc_exec.encrypt_value ctx (a attr) v in
  (* rnd supports nothing *)
  (match Engine.Eval.compare_values ~ctx Predicate.Eq (enc "x" (Value.Int 1)) (Value.Int 1) with
  | exception Engine.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "rnd comparison accepted");
  (* det supports equality but not order *)
  Alcotest.(check bool) "det equality" true
    (Engine.Eval.compare_values ~ctx Predicate.Eq (enc "y" (Value.Int 5)) (Value.Int 5));
  (match Engine.Eval.compare_values ~ctx Predicate.Lt (enc "y" (Value.Int 5)) (Value.Int 9) with
  | exception Engine.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "det order accepted");
  (* ciphertexts under different clusters never compare *)
  match
    Engine.Eval.compare_values ~ctx Predicate.Eq (enc "y" (Value.Int 5))
      (enc "z" (Value.Int 5))
  with
  | exception Engine.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "cross-cluster comparison accepted"

let () =
  Alcotest.run "relalg"
    [ ( "values",
        [ ("compare", `Quick, test_value_compare);
          ("dates", `Quick, test_value_dates) ] );
      ("attrs", [ ("set printing", `Quick, test_attr_set_printing) ]);
      ("schema", [ ("validation", `Quick, test_schema_validation) ]);
      ( "predicates",
        [ ("LIKE matching", `Quick, test_like_matching);
          ("accessors", `Quick, test_predicate_accessors) ] );
      ( "plans",
        [ ("constructor checks", `Quick, test_plan_checks);
          ("traversals", `Quick, test_plan_traversals);
          ("printers", `Quick, test_printers) ] );
      ("tables", [ ("operations", `Quick, test_table_ops) ]);
      ( "eval",
        [ ("encrypted comparison limits", `Quick, test_eval_encrypted_errors) ]
      ) ]
