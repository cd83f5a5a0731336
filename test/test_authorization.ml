(* Authorization policies (Def. 2.1): validation, per-relation views,
   the 'any' default, implicit owner rules, and Def. 4.1 corner cases. *)

open Relalg
open Authz

let hosp = Paper_example.hosp
let ins = Paper_example.ins

let test_rule_disjointness () =
  match Authorization.rule ~rel:"Hosp" ~plain:[ "S" ] ~enc:[ "S" ] Any with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "P and E overlap accepted"

let test_unknown_relation_rejected () =
  match
    Authorization.make ~schemas:[ hosp ]
      [ Authorization.rule ~rel:"Nope" ~plain:[ "S" ] Any ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown relation accepted"

let test_unknown_attribute_rejected () =
  match
    Authorization.make ~schemas:[ hosp ]
      [ Authorization.rule ~rel:"Hosp" ~plain:[ "Z" ] Any ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown attribute accepted"

let test_duplicate_rule_rejected () =
  let u = Subject.user "U" in
  match
    Authorization.make ~schemas:[ hosp ]
      [ Authorization.rule ~rel:"Hosp" ~plain:[ "S" ] (To u);
        Authorization.rule ~rel:"Hosp" ~enc:[ "D" ] (To u) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "two rules for one (relation, subject) accepted"

let test_any_fallback () =
  let u = Subject.user "U" and p = Subject.provider "P" in
  let policy =
    Authorization.make ~schemas:[ hosp ]
      [ Authorization.rule ~rel:"Hosp" ~plain:[ "S"; "D" ] (To u);
        Authorization.rule ~rel:"Hosp" ~plain:[ "T" ] ~enc:[ "D" ] Any ]
  in
  (* explicit rule wins over 'any' entirely (no merging) *)
  let vu = Authorization.relation_view policy "Hosp" u in
  Alcotest.(check string) "U plain" "DS" (Attr.Set.to_string vu.Authorization.plain);
  Alcotest.(check string) "U enc" "" (Attr.Set.to_string vu.Authorization.enc);
  (* unlisted subjects get the 'any' rule *)
  let vp = Authorization.relation_view policy "Hosp" p in
  Alcotest.(check string) "P plain" "T" (Attr.Set.to_string vp.Authorization.plain);
  Alcotest.(check string) "P enc" "D" (Attr.Set.to_string vp.Authorization.enc)

let test_no_rule_no_visibility () =
  let policy = Authorization.make ~schemas:[ hosp ] [] in
  let v = Authorization.relation_view policy "Hosp" (Subject.provider "P") in
  Alcotest.(check bool) "closed policy" true
    (Attr.Set.is_empty v.Authorization.plain
    && Attr.Set.is_empty v.Authorization.enc)

let test_implicit_owner_rule () =
  let policy = Authorization.make ~schemas:[ hosp; ins ] [] in
  let vh = Authorization.view policy (Subject.authority "H") in
  Alcotest.(check string) "H sees its own relation plaintext" "BDST"
    (Attr.Set.to_string vh.Authorization.plain);
  (* ... and nothing of the other authority's *)
  Alcotest.(check bool) "nothing of Ins" true
    (Attr.Set.is_empty (Attr.Set.inter vh.Authorization.plain (Attr.Set.of_names [ "C"; "P" ])))

let test_explicit_owner_rule_overrides () =
  (* an authority can restrict even itself with an explicit rule *)
  let policy =
    Authorization.make ~schemas:[ hosp ]
      [ Authorization.rule ~rel:"Hosp" ~plain:[ "D"; "T" ]
          (To (Subject.authority "H")) ]
  in
  let vh = Authorization.view policy (Subject.authority "H") in
  Alcotest.(check string) "restricted owner" "DT"
    (Attr.Set.to_string vh.Authorization.plain)

(* --- Def. 4.1 corner cases ------------------------------------------- *)

let test_plaintext_implies_encrypted_ok () =
  (* condition 2: plaintext rights satisfy encrypted requirements *)
  let view =
    { Authorization.plain = Attr.Set.of_names [ "A" ]; enc = Attr.Set.empty }
  in
  let p = Profile.make ~ve:[ "A" ] () in
  Alcotest.(check bool) "ve covered by P" true (Authorized.is_authorized view p)

let test_implicit_encrypted_needs_any_visibility () =
  let view =
    { Authorization.plain = Attr.Set.empty; enc = Attr.Set.of_names [ "A" ] }
  in
  Alcotest.(check bool) "ie ⊆ E ok" true
    (Authorized.is_authorized view (Profile.make ~ie:[ "A" ] ()));
  Alcotest.(check bool) "ip ⊆ E not ok" false
    (Authorized.is_authorized view (Profile.make ~ip:[ "A" ] ()))

let test_uniformity_over_invisible_attrs () =
  (* condition 3 applies to equivalence classes even when neither member
     is in the relation's schema *)
  let view =
    { Authorization.plain = Attr.Set.of_names [ "X"; "A" ];
      enc = Attr.Set.of_names [ "B" ] }
  in
  let p = Profile.make ~vp:[ "X" ] ~eq:[ [ "A"; "B" ] ] () in
  Alcotest.(check bool) "mixed class rejected" false
    (Authorized.is_authorized view p);
  let uniform =
    { Authorization.plain = Attr.Set.of_names [ "X" ];
      enc = Attr.Set.of_names [ "A"; "B" ] }
  in
  Alcotest.(check bool) "uniformly encrypted class ok" true
    (Authorized.is_authorized uniform p)

(* --- subjects sharing a name ------------------------------------------- *)

(* A provider named like an authority (provider H beside authority H,
   Hosp's owner) is a different subject: it holds the [any] view, not
   the owner's. Views keyed by name alone once let authority H's view
   answer for provider H, so the planner assigned work to the provider
   that the verifier then rejected. Planning with the provider named H
   must give the plan it gives with the provider named W. *)
let shared_name_policy =
  Authorization.make ~schemas:[ hosp; ins ]
    (List.filter
       (fun (r : Authorization.rule) -> r.Authorization.grantee <> Any)
       (Authorization.rules Paper_example.policy)
    @ [ Authorization.rule ~rel:"Hosp" ~plain:[ "D"; "T" ] ~enc:[ "S" ] Any;
        Authorization.rule ~rel:"Ins" ~enc:[ "C"; "P" ] Any ])

let test_shared_name_views () =
  let any_view = Authorization.view shared_name_policy (Subject.provider "W") in
  let vp = Authorization.view shared_name_policy (Subject.provider "H") in
  let va = Authorization.view shared_name_policy Paper_example.h in
  Alcotest.(check string) "provider H plain" "DT"
    (Attr.Set.to_string vp.Authorization.plain);
  Alcotest.(check string) "provider H enc" "CPS"
    (Attr.Set.to_string vp.Authorization.enc);
  Alcotest.(check bool) "provider H holds the any view" true
    (Attr.Set.equal vp.Authorization.plain any_view.Authorization.plain
    && Attr.Set.equal vp.Authorization.enc any_view.Authorization.enc);
  Alcotest.(check string) "authority H keeps its own" "BCDST"
    (Attr.Set.to_string va.Authorization.plain)

let test_shared_name_plans () =
  let query =
    Mpq_sql.Sql_plan.parse_and_plan ~catalog:[ hosp; ins ]
      "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by \
       T having P>100"
  in
  let plan_with name =
    let provider = Subject.provider name in
    let r =
      Planner.Optimizer.plan ~policy:shared_name_policy
        ~subjects:(Paper_example.subjects @ [ provider ])
        ~deliver_to:Paper_example.u query
    in
    let ext = r.Planner.Optimizer.extended in
    (match Extend.verify ~policy:shared_name_policy ext with
    | Ok () -> ()
    | Error e -> Alcotest.failf "provider %s: %s" name e);
    (* executors in preorder, the extra provider under one placeholder *)
    let executors =
      List.map
        (fun n ->
          match Imap.find_opt (Plan.id n) ext.Extend.assignment with
          | Some s when Subject.equal s provider -> "provider*"
          | Some s -> Planner.Fingerprint.of_subject s
          | None -> "-")
        (Plan.nodes ext.Extend.plan)
    in
    (executors, Printf.sprintf "%h" (Planner.Cost.total r.Planner.Optimizer.cost))
  in
  let exec_h, cost_h = plan_with "H" and exec_w, cost_w = plan_with "W" in
  Alcotest.(check (list string)) "same executors" exec_w exec_h;
  Alcotest.(check string) "same cost" cost_w cost_h

let () =
  Alcotest.run "authorization"
    [ ( "policy-validation",
        [ ("P/E disjoint", `Quick, test_rule_disjointness);
          ("unknown relation", `Quick, test_unknown_relation_rejected);
          ("unknown attribute", `Quick, test_unknown_attribute_rejected);
          ("one rule per subject", `Quick, test_duplicate_rule_rejected) ] );
      ( "views",
        [ ("any fallback", `Quick, test_any_fallback);
          ("closed policy", `Quick, test_no_rule_no_visibility);
          ("implicit owner rule", `Quick, test_implicit_owner_rule);
          ("explicit owner rule overrides", `Quick, test_explicit_owner_rule_overrides)
        ] );
      ( "shared-names",
        [ ("provider H holds its own view", `Quick, test_shared_name_views);
          ("provider H plans like provider W", `Quick, test_shared_name_plans)
        ] );
      ( "def-4.1-corners",
        [ ("plaintext implies encrypted", `Quick, test_plaintext_implies_encrypted_ok);
          ("implicit forms", `Quick, test_implicit_encrypted_needs_any_visibility);
          ("uniformity over invisible attrs", `Quick, test_uniformity_over_invisible_attrs)
        ] ) ]
