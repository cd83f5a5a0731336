(* SQL front end: lexer, parser, plan building, error reporting, and
   round trips through the engine. *)

open Relalg
open Mpq_sql

let catalog = [ Paper_example.hosp; Paper_example.ins ]

let parse s = Sql_parser.parse s
let plan s = Sql_plan.parse_and_plan ~catalog s

(* --- lexer ---------------------------------------------------------- *)

let test_lexer_basics () =
  let open Sql_lexer in
  Alcotest.(check bool) "tokens" true
    (tokenize "select A, 12 from t where x <= 3.5 and s = 'it''s'"
    = [ Ident "select"; Ident "a"; Symbol ","; Int 12; Ident "from";
        Ident "t"; Ident "where"; Ident "x"; Symbol "<="; Float 3.5;
        Ident "and"; Ident "s"; Symbol "="; String "it's"; Eof ])

let test_lexer_error () =
  Alcotest.check_raises "bad char" (Sql_lexer.Lex_error ("unexpected '&'", 7))
    (fun () -> ignore (Sql_lexer.tokenize "select &"));
  Alcotest.check_raises "int overflow"
    (Sql_lexer.Lex_error ("integer literal out of range", 6))
    (fun () -> ignore (Sql_lexer.tokenize "limit 99999999999999999999"))

(* --- parser --------------------------------------------------------- *)

let test_parse_running_example () =
  let q =
    parse
      "select T, avg(P) from Hosp join Ins on S = C where D = 'stroke' \
       group by T having P > 100"
  in
  Alcotest.(check int) "select items" 2 (List.length q.Sql_ast.select);
  Alcotest.(check (list string)) "from" [ "hosp"; "ins" ] q.Sql_ast.from;
  Alcotest.(check int) "join conds" 1 (List.length q.Sql_ast.join_on);
  Alcotest.(check int) "where" 1 (List.length q.Sql_ast.where);
  Alcotest.(check (list string)) "group" [ "t" ] q.Sql_ast.group_by;
  Alcotest.(check int) "having" 1 (List.length q.Sql_ast.having)

let test_parse_between_in_or () =
  let q =
    parse
      "select S from Hosp where (D = 'flu' or D = 'cold') and B between \
       date '1980-01-01' and date '1990-01-01' and T in ('tpa', 'rest')"
  in
  Alcotest.(check int) "three conjuncts" 3 (List.length q.Sql_ast.where)

let test_parse_errors () =
  let expect_fail s =
    match parse s with
    | exception Sql_parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" s
  in
  expect_fail "select from Hosp";
  expect_fail "select S Hosp";
  expect_fail "select S from Hosp where";
  expect_fail "select S from Hosp where D ="

(* --- planning ------------------------------------------------------- *)

let test_plan_shape () =
  let p =
    plan
      "select T, avg(P) from Hosp join Ins on S = C where D = 'stroke' \
       group by T having P > 100"
  in
  (* σ over γ over ⋈ over (σ over π over base, π over base) *)
  Alcotest.(check string) "root is having-select" "select"
    (Plan.operator_name p);
  let ops = List.map Plan.operator_name (Plan.nodes p) in
  Alcotest.(check bool) "has join" true (List.mem "join" ops);
  Alcotest.(check bool) "has group_by" true (List.mem "group_by" ops);
  Alcotest.(check int) "two bases" 2 (List.length (Plan.base_relations p))

let test_plan_pushdown () =
  (* the single-relation filter lands below the join *)
  let p = plan "select S, P from Hosp join Ins on S = C where D = 'stroke'" in
  let rec find_join n =
    match Plan.node n with
    | Plan.Join _ -> Some n
    | _ -> List.find_map find_join (Plan.children n)
  in
  let join = Option.get (find_join p) in
  let left = List.hd (Plan.children join) in
  Alcotest.(check string) "selection below join" "select"
    (Plan.operator_name left)

let test_plan_product_when_unjoined () =
  let p = plan "select S, P from Hosp, Ins" in
  Alcotest.(check bool) "product" true
    (List.exists
       (fun n -> Plan.operator_name n = "product")
       (Plan.nodes p))

let test_plan_case_insensitive () =
  let p = plan "SELECT t FROM hosp WHERE d = 'x'" in
  Alcotest.(check bool) "canonical attr survives" true
    (Attr.Set.mem (Attr.make "T") (Plan.schema p))

let test_plan_errors () =
  let expect_fail s =
    match plan s with
    | exception Sql_plan.Plan_error _ -> ()
    | _ -> Alcotest.failf "expected plan error for %s" s
  in
  expect_fail "select Z from Hosp";
  expect_fail "select S from Nowhere";
  expect_fail "select S, count(*) from Hosp" (* S not grouped *)

(* --- engine round trip ---------------------------------------------- *)

let test_order_limit_parse_and_plan () =
  let p =
    plan "select S, P from Hosp join Ins on S = C order by P desc limit 2"
  in
  Alcotest.(check string) "root is limit" "limit" (Plan.operator_name p);
  match Plan.children p with
  | [ c ] -> Alcotest.(check string) "then order_by" "order_by" (Plan.operator_name c)
  | _ -> Alcotest.fail "limit arity"

let test_distinct () =
  let p = plan "select distinct D from Hosp" in
  Alcotest.(check string) "distinct becomes group_by" "group_by"
    (Plan.operator_name p);
  let tables =
    [ ("Hosp", Engine.Table.of_schema Paper_example.hosp
         [ [| Value.Str "a"; Value.date_of_string "1980-01-01";
              Value.Str "flu"; Value.Str "x" |];
           [| Value.Str "b"; Value.date_of_string "1981-01-01";
              Value.Str "flu"; Value.Str "y" |];
           [| Value.Str "c"; Value.date_of_string "1982-01-01";
              Value.Str "cold"; Value.Str "z" |] ]) ]
  in
  let result = Engine.Exec.run (Engine.Exec.context tables) p in
  Alcotest.(check int) "two distinct values" 2
    (Engine.Table.cardinality result)

let test_sql_executes () =
  let p =
    plan
      "select T, avg(P) from Hosp join Ins on S = C where D = 'stroke' \
       group by T having P > 100"
  in
  let tables =
    [ ("Hosp", Engine.Table.of_schema Paper_example.hosp
         [ [| Value.Str "ann"; Value.date_of_string "1980-01-01";
              Value.Str "stroke"; Value.Str "tpa" |];
           [| Value.Str "bob"; Value.date_of_string "1970-03-02";
              Value.Str "flu"; Value.Str "rest" |] ]);
      ("Ins", Engine.Table.of_schema Paper_example.ins
         [ [| Value.Str "ann"; Value.Int 200 |];
           [| Value.Str "bob"; Value.Int 900 |] ]) ]
  in
  let result = Engine.Exec.run (Engine.Exec.context tables) p in
  Alcotest.(check int) "one group" 1 (Engine.Table.cardinality result)

(* the parser and planner fail only with their own exceptions, never
   with Match_failure / Invalid_argument & co. *)
let prop_parser_total =
  QCheck.Test.make ~count:2000 ~name:"parser is total over garbage"
    QCheck.(string_of_size (QCheck.Gen.int_bound 60))
    (fun input ->
      match plan input with
      | _ -> true
      | exception Sql_lexer.Lex_error _ -> true
      | exception Sql_parser.Parse_error _ -> true
      | exception Sql_plan.Plan_error _ -> true
      | exception _ -> false)

let prop_parser_total_sqlish =
  QCheck.Test.make ~count:2000 ~name:"parser is total over SQL-ish noise"
    (QCheck.make
       QCheck.Gen.(
         let word =
           oneofl
             [ "select"; "from"; "where"; "group"; "by"; "having"; "and";
               "or"; "join"; "on"; "in"; "like"; "between"; "order"; "limit";
               "distinct"; "T"; "P"; "S"; "C"; "D"; "Hosp"; "Ins"; "avg";
               "count"; "sum"; "("; ")"; ","; "="; "<"; ">="; "'x'"; "42";
               "3.5"; "*"; "99999999999999999999" ]
         in
         list_size (int_bound 25) word >>= fun ws -> return (String.concat " " ws)))
    (fun input ->
      match plan input with
      | _ -> true
      | exception Sql_lexer.Lex_error _ -> true
      | exception Sql_parser.Parse_error _ -> true
      | exception Sql_plan.Plan_error _ -> true
      | exception _ -> false)

let () =
  Alcotest.run "sql"
    [ ( "lexer",
        [ ("basics", `Quick, test_lexer_basics);
          ("error position", `Quick, test_lexer_error) ] );
      ( "parser",
        [ ("running example", `Quick, test_parse_running_example);
          ("between/in/or", `Quick, test_parse_between_in_or);
          ("errors", `Quick, test_parse_errors) ] );
      ( "planner",
        [ ("shape", `Quick, test_plan_shape);
          ("selection pushdown", `Quick, test_plan_pushdown);
          ("product fallback", `Quick, test_plan_product_when_unjoined);
          ("case insensitivity", `Quick, test_plan_case_insensitive);
          ("errors", `Quick, test_plan_errors) ] );
      ( "robustness",
        List.map QCheck_alcotest.to_alcotest
          [ prop_parser_total; prop_parser_total_sqlish ] );
      ( "integration",
        [ ("executes", `Quick, test_sql_executes);
          ("distinct", `Quick, test_distinct);
          ("order by / limit", `Quick, test_order_limit_parse_and_plan) ] ) ]
