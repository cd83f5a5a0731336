(* CSV import/export and the policy DSL. *)

open Relalg
open Engine

let schema =
  Schema.make ~name:"T" ~owner:"A"
    [ ("id", Schema.Tint); ("name", Schema.Tstring); ("bal", Schema.Tfloat);
      ("day", Schema.Tdate); ("ok", Schema.Tbool) ]

let test_roundtrip () =
  let t =
    Table.of_schema schema
      [ [| Value.Int 1; Value.Str "plain"; Value.Float 1.5;
           Value.date_of_string "2001-02-03"; Value.Bool true |];
        [| Value.Int 2; Value.Str "with,comma"; Value.Float (-2.0);
           Value.date_of_string "1999-12-31"; Value.Bool false |];
        [| Value.Int 3; Value.Str "with \"quotes\""; Value.Null;
           Value.date_of_string "1970-01-01"; Value.Bool true |] ]
  in
  (* dates render as date(n): not re-importable; compare the other cols *)
  let text =
    "id,name,bal,ok\n1,plain,1.5,true\n2,\"with,comma\",-2,false\n3,\"with \
     \"\"quotes\"\"\",,true\n"
  in
  let small =
    Schema.make ~name:"T2" ~owner:"A"
      [ ("id", Schema.Tint); ("name", Schema.Tstring); ("bal", Schema.Tfloat);
        ("ok", Schema.Tbool) ]
  in
  let parsed = Csv.parse small text in
  Alcotest.(check int) "rows" 3 (Table.cardinality parsed);
  Alcotest.(check bool) "null bal" true
    (Value.equal Value.Null
       (Table.value parsed (List.nth (Table.rows parsed) 2) (Attr.make "bal")));
  Alcotest.(check bool) "comma preserved" true
    (Value.equal (Value.Str "with,comma")
       (Table.value parsed (List.nth (Table.rows parsed) 1) (Attr.make "name")));
  ignore t

let test_header_reorder () =
  let small =
    Schema.make ~name:"T3" ~owner:"A" [ ("x", Schema.Tint); ("y", Schema.Tint) ]
  in
  let parsed = Csv.parse small "y,x\n2,1\n" in
  let row = List.hd (Table.rows parsed) in
  Alcotest.(check bool) "x=1" true
    (Value.equal (Value.Int 1) (Table.value parsed row (Attr.make "x")));
  Alcotest.(check bool) "y=2" true
    (Value.equal (Value.Int 2) (Table.value parsed row (Attr.make "y")))

let test_errors () =
  let small =
    Schema.make ~name:"T4" ~owner:"A" [ ("x", Schema.Tint) ]
  in
  let expect_fail text =
    match Csv.parse small text with
    | exception Csv.Csv_error _ -> ()
    | _ -> Alcotest.failf "expected failure on %S" text
  in
  expect_fail "x\nnot_an_int\n";
  expect_fail "wrong_col\n1\n";
  expect_fail "x\n\"unterminated\n";
  (* a duplicated header column used to be accepted silently *)
  expect_fail "x,x\n1,2\n"

let test_export_then_import () =
  let small =
    Schema.make ~name:"T5" ~owner:"A"
      [ ("x", Schema.Tint); ("s", Schema.Tstring) ]
  in
  let t =
    Table.of_schema small
      [ [| Value.Int 7; Value.Str "a,b\"c" |]; [| Value.Int 8; Value.Str "" |] ]
  in
  let back = Csv.parse small (Csv.to_string t) in
  Alcotest.(check bool) "roundtrip" true
    (let r0 = List.hd (Table.rows back) in
     Value.equal (Value.Str "a,b\"c") (Table.value back r0 (Attr.make "s")))

(* Export renders straight from the columns: typed and boxed columns of
   the same cells give the bytes the row-at-a-time renderer gave *)
let test_export_columns () =
  let attrs = List.map Attr.make [ "i"; "f"; "b"; "s"; "d"; "v" ] in
  let enc = Value.Enc { Value.scheme = "det"; key_id = "k1"; payload = "\x00\xffA," } in
  let date = Value.date_of_string in
  let t =
    Table.create attrs
      [ [| Value.Int (-3); Value.Float 2.5; Value.Bool true; Value.Str "a,b\"c";
           date "1995-03-15"; Value.Null |];
        [| Value.Int 40; Value.Float 1e20; Value.Bool false; Value.Str "";
           date "1970-01-01"; enc |];
        [| Value.Int 0; Value.Float (-0.125); Value.Bool true; Value.Str "x\ny";
           date "2000-02-29"; Value.Int 5 |] ]
  in
  let boxed =
    Table.of_columns ~nrows:(Table.cardinality t) attrs
      (Array.map (fun c -> Column.Values (Column.to_values c)) (Table.columns t))
  in
  let golden =
    "i,f,b,s,d,v\n-3,2.5,true,\"a,b\"\"c\",date(9204),\n\
     40,1e+20,false,,date(0),enc:det:00ff412c\n\
     0,-0.125,true,\"x\ny\",date(11016),5\n"
  in
  Alcotest.(check string) "typed columns" golden (Csv.to_string t);
  Alcotest.(check string) "boxed columns" golden (Csv.to_string boxed)

(* --- policy DSL -------------------------------------------------------- *)

let test_dsl_example () =
  let env = Authz.Policy_dsl.parse Authz.Policy_dsl.example in
  Alcotest.(check int) "two relations" 2
    (List.length env.Authz.Policy_dsl.schemas);
  Alcotest.(check int) "six subjects" 6
    (List.length env.Authz.Policy_dsl.subjects);
  (* views match Fig. 4 *)
  let x = Authz.Subject.provider "X" in
  let v = Authz.Authorization.view env.Authz.Policy_dsl.policy x in
  Alcotest.(check string) "P_X" "DT" (Attr.Set.to_string v.Authz.Authorization.plain);
  Alcotest.(check string) "E_X" "CPS" (Attr.Set.to_string v.Authz.Authorization.enc)

let test_dsl_hosted () =
  let env =
    Authz.Policy_dsl.parse
      "relation R owner H hosted W enc a,b (a int, b int, c string)\nuser U\nauthorize R to U plain a,b,c\n"
  in
  let r = List.hd env.Authz.Policy_dsl.schemas in
  Alcotest.(check string) "host" "W" (Schema.host_name r);
  Alcotest.(check string) "at-rest enc" "ab"
    (Attr.Set.to_string (Schema.stored_encrypted r));
  Alcotest.(check bool) "host subject declared" true
    (List.exists
       (fun s -> Authz.Subject.name s = "W")
       env.Authz.Policy_dsl.subjects)

let test_dsl_errors () =
  let expect_fail text =
    match Authz.Policy_dsl.parse text with
    | exception Authz.Policy_dsl.Syntax_error _ -> ()
    | _ -> Alcotest.failf "expected syntax error on %S" text
  in
  expect_fail "relation R owner";
  expect_fail "authorize R to U plain a";
  expect_fail "relation R owner H (a int\n";
  expect_fail "frobnicate"

(* An authority and a provider may share a name, but then an
   [authorize ... to NAME] line cannot tell them apart: it must fail on
   its own line rather than bind the first subject declared. *)
let test_dsl_ambiguous_subject () =
  let text =
    "relation Hosp owner H (S string, D string)\nprovider H\nuser U\n\
     authorize Hosp to U plain S,D\nauthorize Hosp to H enc S\n"
  in
  match Authz.Policy_dsl.parse text with
  | exception Authz.Policy_dsl.Syntax_error (line, msg) ->
      Alcotest.(check int) "line" 5 line;
      Alcotest.(check string) "message"
        "ambiguous subject H: declared in more than one role" msg
  | _ -> Alcotest.fail "ambiguous grantee accepted"

(* What the model itself refuses (a duplicate column, a rule on an
   unknown relation or column, plain ∩ enc, an unknown at-rest column, a
   relation or rule given twice) is a [Syntax_error] on its own line, as
   are bare [relation] and [authorize] lines. *)
let test_dsl_model_errors () =
  let head = "relation R owner H (a int, b int)\nuser U\n" in
  List.iter
    (fun (text, line, msg) ->
      match Authz.Policy_dsl.parse text with
      | exception Authz.Policy_dsl.Syntax_error (l, m) ->
          Alcotest.(check (pair int string)) (String.escaped text) (line, msg)
            (l, m)
      | _ -> Alcotest.failf "accepted %S" text)
    [ ("relation", 1, "relation declaration needs a column list");
      (head ^ "authorize", 3, "expected: authorize REL to SUBJECT ...");
      ("relation S owner H (a int, a int)", 1, "Schema.make S: duplicate column");
      ( "relation S owner H hosted W enc z (a int)", 1,
        "Schema.make S: storage mentions unknown columns z" );
      (head ^ "relation R owner I (c int)", 3, "relation R declared twice");
      (head ^ "authorize Q to U plain a", 3, "unknown relation Q");
      (head ^ "authorize R to U plain a,z", 3, "R has no column z");
      ( head ^ "authorize R to U plain a enc a", 3,
        "Authorization.rule R: P and E intersect on a" );
      ( head ^ "authorize R to U plain a\nauthorize R to U enc b", 4,
        "second rule for R to the same grantee" ) ]

(* Totality: DSL-like noise either parses or fails with a [Syntax_error]
   whose line exists; no other exception escapes. *)
let prop_dsl_total =
  QCheck.Test.make ~count:2000 ~name:"policy parser is total over DSL noise"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         let word =
           oneofl
             [ "relation"; "authorize"; "user"; "provider"; "authority";
               "owner"; "hosted"; "enc"; "plain"; "to"; "any"; "R"; "S"; "H";
               "U"; "W"; "a"; "b"; "a,b"; "a,a"; "z"; "int"; "text"; "(";
               ")"; "(a int, b int)"; "(a int, a int)"; "(a int"; "#"; "," ]
         in
         let line =
           oneof
             [ map (String.concat " ") (list_size (int_bound 8) word);
               oneofl
                 [ "relation R owner H (a int, b int)";
                   "relation S owner H hosted W enc a (a int)";
                   "user U"; "provider W"; "authorize R to U plain a enc b";
                   "authorize R to any enc a,b"; "authorize S to W plain a" ] ]
         in
         map (String.concat "\n") (list_size (int_bound 8) line)))
    (fun text ->
      match Authz.Policy_dsl.parse text with
      | _ -> true
      | exception Authz.Policy_dsl.Syntax_error (line, _) ->
          line >= 1 && line <= List.length (String.split_on_char '\n' text))

(* --- JSON export -------------------------------------------------------- *)

let test_json_escaping () =
  let j =
    Json.Obj
      [ ("k\"ey", Json.String "line\nbreak \"quoted\" tab\t");
        ("nums", Json.List [ Json.Int 1; Json.Float 2.5; Json.Float nan ]);
        ("empty", Json.Obj []) ]
  in
  let s = Json.to_string ~pretty:false j in
  Alcotest.(check bool) "escapes quote" true
    (String.length s > 0
    && (try ignore (Str.search_forward (Str.regexp_string "\\\"") s 0); true
        with Not_found -> false))

let test_json_report () =
  let env = Authz.Policy_dsl.parse Authz.Policy_dsl.example in
  let plan =
    Mpq_sql.Sql_plan.parse_and_plan ~catalog:env.Authz.Policy_dsl.schemas
      "select T, avg(P) from Hosp join Ins on S = C where D = 'stroke' \
       group by T having P > 100"
  in
  let u =
    List.find
      (fun s -> s.Authz.Subject.role = Authz.Subject.User)
      env.Authz.Policy_dsl.subjects
  in
  let r =
    Planner.Optimizer.plan ~policy:env.Authz.Policy_dsl.policy
      ~subjects:env.Authz.Policy_dsl.subjects ~deliver_to:u plan
  in
  let s = Planner.Report.to_string r in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true
        (try ignore (Str.search_forward (Str.regexp_string key) s 0); true
         with Not_found -> false))
    [ "\"plan\""; "\"keys\""; "\"dispatch\""; "\"cost\"";
      "\"executor\""; "\"equivalence_sets\"" ]

let () =
  Alcotest.run "csv-dsl"
    [ ( "csv",
        [ ("parse with quotes/nulls", `Quick, test_roundtrip);
          ("header reordering", `Quick, test_header_reorder);
          ("errors", `Quick, test_errors);
          ("export/import", `Quick, test_export_then_import);
          ("export from columns", `Quick, test_export_columns) ] );
      ( "json",
        [ ("escaping", `Quick, test_json_escaping);
          ("planning report", `Quick, test_json_report) ] );
      ( "policy-dsl",
        [ ("running example parses to Fig. 4", `Quick, test_dsl_example);
          ("hosted relations", `Quick, test_dsl_hosted);
          ("syntax errors", `Quick, test_dsl_errors);
          ("ambiguous subject", `Quick, test_dsl_ambiguous_subject);
          ("model errors are line-numbered", `Quick, test_dsl_model_errors);
          QCheck_alcotest.to_alcotest prop_dsl_total ] ) ]
