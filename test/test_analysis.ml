(* The static authorization-dependency analysis (lib/analysis). Five
   pillars:

   1. deltas — policies diff structurally at the view level: no-op rule
      rewrites produce empty deltas, single-permission revocations
      produce exactly the facts that changed, and schema changes are
      flagged incompatible rather than diffed;
   2. soundness — the qcheck property the serve layer's incremental
      invalidation rests on: as long as a policy delta removes no fact
      in a plan's dependency set, the verifier's verdict on that plan
      is unchanged (grant overlaps included — monotonicity), and for
      revoke-only disjoint deltas the query stays plannable — serving
      the retained plan never masks a query that should now be denied.
      (A fresh replan may land on a *differently shaped* plan of equal
      cost — deleting never-chosen candidates changes the order in
      which the optimizer meets tied plans — which is why test_serve's
      churn replay compares responses as canonical row multisets, not
      bytes);
   3. audit — who-sees-what on the paper's running example, including
      join paths, with filters and a stable rendering;
   4. canonical diagnostics — two independent builds of the same
      failing verification render byte-identically, node ids cited as
      preorder positions rather than allocation-counter values;
   5. stored profiles — dependency sets read off a verified plan's
      stored profiles equal those over the verifier's re-derivation,
      whole-plan and per subtree, and a missing profile raises. *)

open Relalg
open Authz

let env = Policy_dsl.parse Policy_dsl.example
let policy = env.Policy_dsl.policy

let user =
  List.find (fun s -> s.Subject.role = Subject.User) env.Policy_dsl.subjects

let running_query =
  "select T, avg(P) from Hosp join Ins on S=C where D='stroke' \
   group by T having P>100"

let parse_running () =
  Mpq_sql.Sql_plan.parse_and_plan ~catalog:env.Policy_dsl.schemas
    running_query

let fact s a level =
  { Analysis.Fact.subject = s; attr = Attr.make a; level }

let fact_set_testable =
  Alcotest.testable
    (fun fmt s ->
      Format.pp_print_string fmt (Analysis.Fact.Set.to_string s))
    Analysis.Fact.Set.equal

(* --- deltas ----------------------------------------------------------- *)

let diff_exn old_policy new_policy =
  match Analysis.Delta.diff ~old_policy ~new_policy () with
  | `Delta d -> d
  | `Incompatible -> Alcotest.fail "unexpected Incompatible"

let test_delta_empty () =
  let d = diff_exn policy policy in
  Alcotest.(check bool) "identical policies: empty delta" true
    (Analysis.Delta.is_empty d);
  (* a rule-list no-op: re-parsing the same text is a different value
     but the same views *)
  let reparsed = (Policy_dsl.parse Policy_dsl.example).Policy_dsl.policy in
  Alcotest.(check bool) "re-parse: empty delta" true
    (Analysis.Delta.is_empty (diff_exn policy reparsed))

let test_delta_single_revocation () =
  let revoked =
    (Policy_dsl.parse
       (Str.global_replace
          (Str.regexp_string "authorize Ins to Y plain P enc C")
          "authorize Ins to Y enc C" Policy_dsl.example))
      .Policy_dsl.policy
  in
  let d = diff_exn policy revoked in
  Alcotest.check fact_set_testable "exactly one fact removed"
    (Analysis.Fact.Set.singleton
       (fact (Subject.provider "Y") "P" Analysis.Fact.Plain))
    d.Analysis.Delta.removed;
  Alcotest.check fact_set_testable "nothing added"
    Analysis.Fact.Set.empty d.Analysis.Delta.added;
  Alcotest.(check bool) "not grant-only" false (Analysis.Delta.grant_only d);
  (* the reverse direction is the grant *)
  let d' = diff_exn revoked policy in
  Alcotest.(check bool) "restore is grant-only" true
    (Analysis.Delta.grant_only d');
  Alcotest.check fact_set_testable "the same fact, added back"
    (Analysis.Fact.Set.singleton
       (fact (Subject.provider "Y") "P" Analysis.Fact.Plain))
    d'.Analysis.Delta.added

let test_delta_implicit_rule () =
  (* writing a relation's owner an explicit rule silently replaces its
     implicit full-plaintext view — a view-level diff must see the
     shrink even though, rule-for-rule, something was "added" *)
  let schemas = [ Gen.rel3 ] in
  let implicit = Authorization.make ~schemas [] in
  let explicit =
    Authorization.make ~schemas
      [ Authorization.rule ~rel:"R3" ~plain:[ "h" ] (Authorization.To (Subject.authority "A2")) ]
  in
  let d = diff_exn implicit explicit in
  Alcotest.check fact_set_testable "owner lost k"
    (Analysis.Fact.Set.singleton
       (fact (Subject.authority "A2") "k" Analysis.Fact.Plain))
    d.Analysis.Delta.removed

let test_delta_incompatible () =
  let renamed =
    Schema.make ~name:"R3" ~owner:"A2"
      [ ("h", Schema.Tint); ("kk", Schema.Tint) ]
  in
  let a = Authorization.make ~schemas:[ Gen.rel3 ] [] in
  let b = Authorization.make ~schemas:[ renamed ] [] in
  match Analysis.Delta.diff ~old_policy:a ~new_policy:b () with
  | `Incompatible -> ()
  | `Delta _ -> Alcotest.fail "schema change must be incompatible"

(* --- soundness (qcheck) ----------------------------------------------- *)

let verifier_ok ~policy (r : Planner.Optimizer.result) =
  Verify.Verifier.ok
    (Verify.Verifier.run
       { Verify.Verifier.policy;
         config = r.Planner.Optimizer.config;
         extended = r.Planner.Optimizer.extended;
         clusters = r.Planner.Optimizer.clusters;
         requests = r.Planner.Optimizer.requests })

let prop_deps_soundness =
  QCheck.Test.make ~count:60
    ~name:
      "no removed dependency => verdict unchanged; revoke-only disjoint \
       => still plannable"
    Gen.arbitrary_plan_policy
    (fun (plan, policy0) ->
      match
        Planner.Optimizer.plan ~policy:policy0 ~subjects:Gen.subjects
          ~deliver_to:Gen.user plan
      with
      | exception Planner.Optimizer.No_candidate _ -> true
      | exception Planner.Optimizer.User_not_authorized _ -> true
      | exception Planner.Optimizer.Verification_failed _ -> true
      | r ->
          let deps =
            Analysis.Deps.of_extended ~deliver_to:Gen.user ~original:plan
              ~extended:r.Planner.Optimizer.extended
              ~clusters:r.Planner.Optimizer.clusters ()
          in
          if Analysis.Fact.Set.is_empty deps then
            QCheck.Test.fail_report "planned query has empty dependency set";
          let st = Random.State.make [| Hashtbl.hash (Analysis.Fact.Set.to_string deps) |] in
          (* walk a chain of mutations, checking the invalidation
             protocol's claims against the *cached* plan [r] for as
             long as the protocol would retain it *)
          let rec walk p steps =
            if steps = 0 then true
            else
              let p' = Gen.mutate_policy ~mode:`Mixed p st in
              match Analysis.Delta.diff ~subjects:Gen.subjects ~old_policy:p
                      ~new_policy:p' ()
              with
              | `Incompatible ->
                  QCheck.Test.fail_report "mutation changed the schemas"
              | `Delta d ->
                  let removed_hit =
                    not
                      (Analysis.Fact.Set.is_empty
                         (Analysis.Fact.Set.inter d.Analysis.Delta.removed deps))
                  in
                  if removed_hit then true
                    (* protocol drops the entry; nothing further to hold *)
                  else begin
                    (* grants may overlap the dependency set; revokes do
                       not: the verdict must be unchanged *)
                    if not (verifier_ok ~policy:p' r) then
                      QCheck.Test.fail_reportf
                        "verdict flipped without a removed dependency\n\
                         delta %s"
                        (Analysis.Delta.to_string d);
                    (if
                       Analysis.Fact.Set.is_empty d.Analysis.Delta.added
                       && not (Analysis.Delta.is_empty d)
                     then
                       (* revoke-only and disjoint: the query must stay
                          plannable, so serving the retained entry never
                          masks a rejection. (The fresh plan's *shape*
                          may differ — a tie among cheapest plans may be
                          broken otherwise — so equal results are
                          asserted over executions in test_serve's
                          churn replay, canonically.) *)
                       match
                         Planner.Optimizer.plan ~policy:p'
                           ~subjects:Gen.subjects ~deliver_to:Gen.user plan
                       with
                       | (_ : Planner.Optimizer.result) -> ()
                       | exception e ->
                           QCheck.Test.fail_reportf
                             "disjoint revoke made the query unplannable: %s"
                             (Printexc.to_string e));
                    walk p' (steps - 1)
                  end
          in
          walk policy0 4)

(* --- stored profiles ---------------------------------------------------- *)

(* [Deps] reads the verified plan's stored profiles. On every plan the
   optimizer returns, the dependency set must equal the one computed
   over the verifier's own lenient re-derivation. *)
let deps_match_derivation ?deliver_to ?original (r : Planner.Optimizer.result) =
  let extended = r.Planner.Optimizer.extended
  and clusters = r.Planner.Optimizer.clusters in
  let derived =
    { extended with
      Extend.profiles = fst (Verify.Derive.lenient extended.Extend.plan) }
  in
  let deps extended =
    Analysis.Deps.of_extended ?deliver_to ?original ~extended ~clusters ()
  in
  Analysis.Fact.Set.equal (deps extended) (deps derived)

let prop_deps_stored_profiles =
  QCheck.Test.make ~count:60
    ~name:"stored profiles give the re-derivation's dependency sets"
    Gen.arbitrary_plan_policy
    (fun (plan, policy) ->
      match
        Planner.Optimizer.plan ~policy ~subjects:Gen.subjects
          ~deliver_to:Gen.user plan
      with
      | exception Planner.Optimizer.No_candidate _ -> true
      | exception Planner.Optimizer.User_not_authorized _ -> true
      | exception Planner.Optimizer.Verification_failed _ -> true
      | r -> deps_match_derivation ~deliver_to:Gen.user ~original:plan r)

let test_deps_stored_profiles_tpch () =
  List.iter
    (fun (n, _, build) ->
      List.iter
        (fun sc ->
          Alcotest.(check bool)
            (Printf.sprintf "Q%d %s" n (Tpch.Scenarios.name sc))
            true
            (deps_match_derivation ~deliver_to:Tpch.Scenarios.user
               (Tpch.Scenarios.optimize ~scenario:sc (build ()))))
        Tpch.Scenarios.all)
    Tpch.Tpch_queries.all

(* A missing stored profile fails closed instead of contributing no
   facts, which would let an entry outlive a revocation it depends on. *)
let test_deps_missing_profile () =
  let r =
    Planner.Optimizer.plan ~policy ~subjects:env.Policy_dsl.subjects
      ~deliver_to:user (parse_running ())
  in
  let extended = r.Planner.Optimizer.extended in
  let assigned =
    List.find
      (fun n -> Imap.mem (Plan.id n) extended.Extend.assignment)
      (Plan.nodes extended.Extend.plan)
  in
  let profiles = Hashtbl.copy extended.Extend.profiles in
  Hashtbl.remove profiles (Plan.id assigned);
  match
    Analysis.Deps.of_extended ~deliver_to:user
      ~extended:{ extended with Extend.profiles }
      ~clusters:r.Planner.Optimizer.clusters ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a missing stored profile must raise Invalid_argument"

(* --- audit ------------------------------------------------------------ *)

let has_line findings line =
  List.exists
    (fun l -> String.equal l line)
    (String.split_on_char '\n' (Analysis.Audit.render findings))

let test_audit_running_example () =
  let findings = Analysis.Audit.run ~policy () in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "present: %s" line) true
        (has_line findings line))
    [ "S: U plain via relation Hosp";
      "S: X enc via relation Hosp";
      "P: Y plain via relation Ins";
      (* U holds S and C plaintext, so it may run the S=C equi-join and
         observe both sides *)
      "S: U plain via join Hosp.S = Ins.C";
      (* X holds S and C encrypted only: the join is lawful over
         deterministic ciphertext, and reveals only ciphertext *)
      "S: X enc via join Hosp.S = Ins.C" ];
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (Printf.sprintf "absent: %s*" prefix) false
        (List.exists
           (fun l -> String.length l >= String.length prefix
                     && String.equal (String.sub l 0 (String.length prefix)) prefix)
           (String.split_on_char '\n' (Analysis.Audit.render findings))))
    [ (* X was never granted B, directly or via any *)
      "B: X";
      (* X holds S encrypted only: no plaintext sight of S, by any path *)
      "S: X plain" ]

let test_audit_filters () =
  let all = Analysis.Audit.run ~policy () in
  let only_s = Analysis.Audit.run ~policy ~attr:"S" () in
  Alcotest.(check bool) "attr filter is a restriction" true
    (List.for_all
       (fun (f : Analysis.Audit.finding) ->
         String.equal (Attr.name f.Analysis.Audit.attr) "S")
       only_s);
  Alcotest.(check bool) "attr filter keeps all S findings" true
    (List.length only_s
    = List.length
        (List.filter
           (fun (f : Analysis.Audit.finding) ->
             String.equal (Attr.name f.Analysis.Audit.attr) "S")
           all));
  let only_u = Analysis.Audit.run ~policy ~subject:"U" () in
  Alcotest.(check bool) "subject filter is a restriction" true
    (List.for_all
       (fun (f : Analysis.Audit.finding) ->
         String.equal (Subject.name f.Analysis.Audit.subject) "U")
       only_u);
  (* deterministic output: two runs render byte-identically *)
  Alcotest.(check string) "stable rendering"
    (Analysis.Audit.render all)
    (Analysis.Audit.render (Analysis.Audit.run ~policy ()))

(* --- canonical diagnostics -------------------------------------------- *)

let test_canonical_diagnostics () =
  let revoked =
    (Policy_dsl.parse
       (Str.global_replace
          (Str.regexp_string "authorize Ins to Y plain P enc C")
          "authorize Ins to Y enc C" Policy_dsl.example))
      .Policy_dsl.policy
  in
  (* verify a plan built under the full policy against the revoked one:
     guaranteed errors, and every build allocates fresh node ids *)
  let build () =
    let r =
      Planner.Optimizer.plan ~policy ~subjects:env.Policy_dsl.subjects
        ~deliver_to:user (parse_running ())
    in
    Verify.Verifier.run
      { Verify.Verifier.policy = revoked;
        config = r.Planner.Optimizer.config;
        extended = r.Planner.Optimizer.extended;
        clusters = r.Planner.Optimizer.clusters;
        requests = r.Planner.Optimizer.requests }
  in
  let a = build () and b = build () in
  Alcotest.(check bool) "revocation produces errors" true
    (Verify.Diag.has_errors a);
  Alcotest.(check string) "independent builds render byte-identically"
    (Verify.Diag.render a) (Verify.Diag.render b);
  (* positions, not allocation ids: every cited node id is small (the
     plan has well under 100 nodes; raw allocation ids keep growing
     across builds) *)
  List.iter
    (fun (d : Verify.Diag.t) ->
      match d.Verify.Diag.node_id with
      | Some id ->
          Alcotest.(check bool)
            (Printf.sprintf "node id %d is a preorder position" id)
            true (id >= 0 && id < 100)
      | None -> ())
    b

let () =
  let qsuite =
    List.map (QCheck_alcotest.to_alcotest ~verbose:false) [ prop_deps_soundness ]
  and stored =
    List.map (QCheck_alcotest.to_alcotest ~verbose:false)
      [ prop_deps_stored_profiles ]
  in
  Alcotest.run "analysis"
    [ ( "delta",
        [ ("empty on identical views", `Quick, test_delta_empty);
          ("single revocation", `Quick, test_delta_single_revocation);
          ("implicit owner rule", `Quick, test_delta_implicit_rule);
          ("schema change incompatible", `Quick, test_delta_incompatible) ] );
      ("soundness", qsuite);
      ( "profiles",
        stored
        @ [ ("tpch: equal to re-derivation", `Quick,
             test_deps_stored_profiles_tpch);
            ("missing profile raises", `Quick, test_deps_missing_profile) ] );
      ( "audit",
        [ ("running example", `Quick, test_audit_running_example);
          ("filters and stability", `Quick, test_audit_filters) ] );
      ( "diagnostics",
        [ ("canonical across builds", `Quick, test_canonical_diagnostics) ] ) ]
