(* The static plan verifier (lib/verify) against the production
   pipeline and against deliberately corrupted artifacts:

   - property: every plan the optimizer produces over random
     plans/policies verifies with zero Error diagnostics;
   - property: every extension of a candidate-drawn assignment verifies
     with zero Error diagnostics;
   - mutation tests: corrupting one artifact at a time (assignment,
     profiles, injected encryption, key holders, cluster schemes,
     dispatch requests) trips exactly the expected MPQxxx code. *)

open Relalg
open Authz

let has code diags =
  List.exists (fun (d : Verify.Diag.t) -> String.equal d.Verify.Diag.code code) diags

let check_has code diags =
  if not (has code diags) then
    Alcotest.failf "expected %s (%s); got:\n%s" code
      (Option.value ~default:"?" (Verify.Diag.describe code))
      (Verify.Diag.render diags)

let run = Verify.Verifier.run

(* --- properties over random plans/policies --------------------------- *)

let prop_optimizer_clean =
  QCheck.Test.make ~count:120
    ~name:"optimizer-produced plans verify with zero errors"
    Gen.arbitrary_plan_policy (fun (plan, policy) ->
      match
        Planner.Optimizer.plan ~policy ~subjects:Gen.subjects
          ~deliver_to:Gen.user plan
      with
      | exception Planner.Optimizer.No_candidate _ ->
          QCheck.assume_fail ()
      | exception Planner.Optimizer.User_not_authorized _ ->
          QCheck.assume_fail ()
      | exception Planner.Optimizer.Verification_failed diags ->
          QCheck.Test.fail_reportf "self-check rejected the plan:\n%s"
            (Verify.Diag.render diags)
      | r ->
          let diags =
            run
              { Verify.Verifier.policy;
                config = r.Planner.Optimizer.config;
                extended = r.Planner.Optimizer.extended;
                clusters = r.Planner.Optimizer.clusters;
                requests = r.Planner.Optimizer.requests }
          in
          if Verify.Diag.has_errors diags then
            QCheck.Test.fail_reportf "verifier disagrees:\n%s"
              (Verify.Diag.render diags)
          else true)

(* draw one assignment from the candidate sets (as in test_extend) *)
let draw_assignment st lam plan =
  Plan.fold
    (fun acc n ->
      if Candidates.is_source_side n then acc
      else
        let cands = Subject.Set.elements (Candidates.candidates_of lam n) in
        match cands with
        | [] -> acc
        | _ ->
            let i = QCheck.Gen.int_bound (List.length cands - 1) st in
            Imap.add (Plan.id n) (List.nth cands i) acc)
    Imap.empty plan

let plannable lam assignment plan =
  Plan.fold
    (fun acc n ->
      acc
      && (Candidates.is_source_side n || Imap.mem (Plan.id n) assignment
         || Subject.Set.is_empty (Candidates.candidates_of lam n)))
    true plan
  && Plan.fold
       (fun acc n ->
         acc
         && (Candidates.is_source_side n || Imap.mem (Plan.id n) assignment))
       true plan

let gen_case =
  QCheck.Gen.(
    Gen.gen_plan >>= fun plan ->
    Gen.gen_policy >>= fun policy ->
    fun st ->
      let config = Opreq.resolve_conflicts Opreq.default plan in
      let lam =
        Candidates.compute ~policy ~subjects:Gen.subjects ~config plan
      in
      let assignment = draw_assignment st lam plan in
      (plan, policy, config, lam, assignment))

let arbitrary_case =
  QCheck.make
    ~print:(fun (plan, _, _, _, _) -> Plan_printer.to_ascii plan)
    gen_case

let prop_extension_clean =
  QCheck.Test.make ~count:200
    ~name:"candidate-drawn extensions verify with zero errors"
    arbitrary_case (fun (plan, policy, config, lam, assignment) ->
      QCheck.assume (plannable lam assignment plan);
      let ext = Extend.extend ~policy ~config ~assignment plan in
      let input =
        Verify.Verifier.make_input ~policy ~config ~original:plan ext
      in
      let diags = run input in
      if Verify.Diag.has_errors diags then
        QCheck.Test.fail_reportf "verifier disagrees:\n%s"
          (Verify.Diag.render diags)
      else true)

(* --- mutation fixture ------------------------------------------------- *)

let schema_r =
  Schema.make ~name:"R" ~owner:"A" [ ("a", Schema.Tint); ("b", Schema.Tint) ]

let u = Subject.user "U"
let prov_p = Subject.provider "P"
let prov_q = Subject.provider "Q"

let fixture_policy =
  Authorization.make ~schemas:[ schema_r ]
    [ Authorization.rule ~rel:"R" ~plain:[ "a"; "b" ] (To u);
      Authorization.rule ~rel:"R" ~enc:[ "a"; "b" ] (To prov_p) ]

let fixture_pred =
  Predicate.conj [ Predicate.Cmp_const (Attr.make "b", Predicate.Eq, Value.Int 5) ]

(* base R -> select(b=5); assigning the select to P (encrypted-only view)
   forces the extension to inject encrypt{ab}@A below and, via
   deliver_to, decrypt{ab}@U on top *)
let fixture () =
  let plan = Plan.select fixture_pred (Plan.base schema_r) in
  let config = Opreq.resolve_conflicts Opreq.default plan in
  let assignment = Imap.add (Plan.id plan) prov_p Imap.empty in
  let ext =
    Extend.extend ~policy:fixture_policy ~config ~assignment ~deliver_to:u
      plan
  in
  let clusters = Plan_keys.compute ~config ~original:plan ext in
  let requests = Dispatch.requests ext clusters in
  { Verify.Verifier.policy = fixture_policy; config; extended = ext;
    clusters; requests }

let find_node plan pred =
  match List.find_opt (fun n -> pred (Plan.node n)) (Plan.nodes plan) with
  | Some n -> n
  | None -> Alcotest.fail "fixture node not found"

let test_fixture_clean () =
  let diags = run (fixture ()) in
  Alcotest.(check int)
    (Printf.sprintf "clean fixture, got:\n%s" (Verify.Diag.render diags))
    0 (List.length diags)

let test_corrupt_assignment () =
  (* the select lands on a subject with no view at all *)
  let input = fixture () in
  let ext = input.Verify.Verifier.extended in
  let sel =
    find_node ext.Extend.plan (function Plan.Select _ -> true | _ -> false)
  in
  let ext' =
    { ext with
      Extend.assignment =
        Imap.add (Plan.id sel) prov_q ext.Extend.assignment }
  in
  let diags = run { input with Verify.Verifier.extended = ext' } in
  check_has "MPQ011" diags;
  check_has "MPQ012" diags

let test_missing_executor () =
  let input = fixture () in
  let ext = input.Verify.Verifier.extended in
  let sel =
    find_node ext.Extend.plan (function Plan.Select _ -> true | _ -> false)
  in
  let ext' =
    { ext with
      Extend.assignment = Imap.remove (Plan.id sel) ext.Extend.assignment }
  in
  check_has "MPQ010" (run { input with Verify.Verifier.extended = ext' })

let test_tampered_profile () =
  let input = fixture () in
  let ext = input.Verify.Verifier.extended in
  let profiles = Hashtbl.copy ext.Extend.profiles in
  Hashtbl.replace profiles
    (Plan.id ext.Extend.plan)
    (Profile.make ~vp:[ "a" ] ());
  let ext' = { ext with Extend.profiles = profiles } in
  check_has "MPQ001" (run { input with Verify.Verifier.extended = ext' })

let test_missing_profile () =
  let input = fixture () in
  let ext = input.Verify.Verifier.extended in
  let profiles = Hashtbl.copy ext.Extend.profiles in
  Hashtbl.remove profiles (Plan.id ext.Extend.plan);
  let ext' = { ext with Extend.profiles = profiles } in
  check_has "MPQ003" (run { input with Verify.Verifier.extended = ext' })

let test_dropped_encryption () =
  (* hand-build the same assignment WITHOUT the injected encryption:
     P now reads the base relation in plaintext *)
  let plan = Plan.select fixture_pred (Plan.base schema_r) in
  let config = Opreq.resolve_conflicts Opreq.default plan in
  let base =
    find_node plan (function Plan.Base _ -> true | _ -> false)
  in
  let assignment =
    Imap.add (Plan.id base) (Subject.authority "A")
      (Imap.add (Plan.id plan) prov_p Imap.empty)
  in
  let ext =
    { Extend.plan; assignment; profiles = Profile.annotate plan }
  in
  let requests = Dispatch.requests ext [] in
  let diags =
    run
      { Verify.Verifier.policy = fixture_policy; config; extended = ext;
        clusters = []; requests }
  in
  check_has "MPQ011" diags

let test_precondition_violation () =
  (* encrypting b twice: the inner Encrypt leaves b ciphertext, so the
     outer one violates Fig. 2's plaintext precondition *)
  let attr_b = Attr.Set.of_names [ "b" ] in
  let plan = Plan.encrypt attr_b (Plan.encrypt attr_b (Plan.base schema_r)) in
  let config = Opreq.default in
  let auth = Subject.authority "A" in
  let assignment =
    List.fold_left
      (fun acc n -> Imap.add (Plan.id n) auth acc)
      Imap.empty (Plan.nodes plan)
  in
  let ext = { Extend.plan; assignment; profiles = Hashtbl.create 4 } in
  let diags =
    run ~checks:[ Verify.Verifier.Profiles ]
      { Verify.Verifier.policy = fixture_policy; config; extended = ext;
        clusters = []; requests = [] }
  in
  check_has "MPQ002" diags

let test_widened_holders () =
  let input = fixture () in
  let clusters =
    List.map
      (fun (c : Plan_keys.cluster) ->
        { c with
          Plan_keys.holders = Subject.Set.add prov_q c.Plan_keys.holders })
      input.Verify.Verifier.clusters
  in
  let diags = run { input with Verify.Verifier.clusters = clusters } in
  check_has "MPQ032" diags

let test_unauthorized_holder () =
  (* shrink U's grant to plaintext-a only: U still decrypts b at the
     top, so it holds b's key without plaintext authorization *)
  let policy =
    Authorization.make ~schemas:[ schema_r ]
      [ Authorization.rule ~rel:"R" ~plain:[ "a" ] ~enc:[ "b" ] (To u);
        Authorization.rule ~rel:"R" ~enc:[ "a"; "b" ] (To prov_p) ]
  in
  let input = fixture () in
  let diags = run { input with Verify.Verifier.policy = policy } in
  check_has "MPQ030" diags

let test_missing_key () =
  let input = fixture () in
  let clusters =
    List.map
      (fun (c : Plan_keys.cluster) ->
        { c with Plan_keys.holders = Subject.Set.remove u c.Plan_keys.holders })
      input.Verify.Verifier.clusters
  in
  check_has "MPQ031" (run { input with Verify.Verifier.clusters = clusters })

let test_clusterless_attr () =
  let input = fixture () in
  let clusters =
    List.filter
      (fun (c : Plan_keys.cluster) ->
        not (Attr.Set.mem (Attr.make "a") c.Plan_keys.attrs))
      input.Verify.Verifier.clusters
  in
  check_has "MPQ033" (run { input with Verify.Verifier.clusters = clusters })

let test_insufficient_scheme () =
  (* the select evaluates b=5 over ciphertext: downgrading b's cluster
     to Rnd makes that equality test impossible *)
  let input = fixture () in
  let clusters =
    List.map
      (fun (c : Plan_keys.cluster) ->
        if Attr.Set.mem (Attr.make "b") c.Plan_keys.attrs then
          { c with Plan_keys.scheme = Mpq_crypto.Scheme.Rnd }
        else c)
      input.Verify.Verifier.clusters
  in
  check_has "MPQ040" (run { input with Verify.Verifier.clusters = clusters })

let test_sum_over_encrypted_sum () =
  (* P averages b under Paillier, then averages the aggregated
     ciphertexts again: an aggregated Paillier value carries its own sum
     and count and cannot be added into another *)
  let a = Attr.Set.of_names [ "a" ] and b = Attr.make "b" in
  let avg_b = [ Aggregate.make (Aggregate.Avg b) ] in
  let plan =
    Plan.group_by a avg_b
      (Plan.group_by a avg_b
         (Plan.encrypt (Attr.Set.singleton b) (Plan.base schema_r)))
  in
  let base = find_node plan (function Plan.Base _ -> true | _ -> false) in
  let assignment =
    List.fold_left
      (fun acc n ->
        Imap.add (Plan.id n)
          (if n == base then Subject.authority "A" else prov_p)
          acc)
      Imap.empty (Plan.nodes plan)
  in
  let ext = { Extend.plan; assignment; profiles = Profile.annotate plan } in
  let clusters =
    [ { Plan_keys.id = "b"; attrs = Attr.Set.singleton b;
        scheme = Mpq_crypto.Scheme.Phe;
        holders = Subject.Set.singleton (Subject.authority "A") } ]
  in
  let diags =
    run ~checks:[ Verify.Verifier.Schemes ]
      { Verify.Verifier.policy = fixture_policy; config = Opreq.default;
        extended = ext; clusters; requests = [] }
  in
  check_has "MPQ041" diags;
  Alcotest.(check int) "only the outer average" 1
    (List.length
       (List.filter (fun (d : Verify.Diag.t) -> d.Verify.Diag.code = "MPQ041") diags))

let test_spurious_encryption () =
  (* P is plaintext-authorized, yet the plan encrypts a around P's
     select: safe but over-protective (Thm. 5.3 says the extension
     procedure never does this) *)
  let policy =
    Authorization.make ~schemas:[ schema_r ]
      [ Authorization.rule ~rel:"R" ~plain:[ "a"; "b" ] (To u);
        Authorization.rule ~rel:"R" ~plain:[ "a"; "b" ] (To prov_p) ]
  in
  let attr_a = Attr.Set.of_names [ "a" ] in
  let plan =
    Plan.decrypt attr_a
      (Plan.select fixture_pred (Plan.encrypt attr_a (Plan.base schema_r)))
  in
  let config = Opreq.resolve_conflicts Opreq.default plan in
  let auth = Subject.authority "A" in
  let assignment =
    List.fold_left
      (fun acc n ->
        let s =
          match Plan.node n with
          | Plan.Base _ | Plan.Encrypt _ -> auth
          | Plan.Select _ -> prov_p
          | _ -> u
        in
        Imap.add (Plan.id n) s acc)
      Imap.empty (Plan.nodes plan)
  in
  let ext = { Extend.plan; assignment; profiles = Profile.annotate plan } in
  let input =
    Verify.Verifier.make_input ~policy ~config
      ~original:(Plan.strip_crypto plan) ext
  in
  let diags = run input in
  check_has "MPQ020" diags;
  Alcotest.(check bool)
    (Printf.sprintf "no errors, only warnings:\n%s" (Verify.Diag.render diags))
    false
    (Verify.Diag.has_errors diags)

(* --- dispatch mutations ----------------------------------------------- *)

let with_requests input requests =
  { input with Verify.Verifier.requests }

let test_dropped_request () =
  let input = fixture () in
  match input.Verify.Verifier.requests with
  | first :: rest ->
      let diags = run (with_requests input rest) in
      check_has "MPQ055" diags;
      (* the caller still references the dropped fragment *)
      if List.exists (fun (r : Dispatch.request) ->
             List.mem first.Dispatch.name r.Dispatch.calls)
           rest
      then check_has "MPQ050" diags
  | [] -> Alcotest.fail "fixture produced no requests"

let test_reversed_requests () =
  let input = fixture () in
  let diags =
    run (with_requests input (List.rev input.Verify.Verifier.requests))
  in
  check_has "MPQ052" diags

let test_wrong_request_subject () =
  let input = fixture () in
  let requests =
    List.map
      (fun (r : Dispatch.request) ->
        if Subject.equal r.Dispatch.subject prov_p then
          { r with Dispatch.subject = prov_q }
        else r)
      input.Verify.Verifier.requests
  in
  check_has "MPQ053" (run (with_requests input requests))

let test_stripped_keys () =
  let input = fixture () in
  let requests =
    List.map
      (fun (r : Dispatch.request) -> { r with Dispatch.key_clusters = [] })
      input.Verify.Verifier.requests
  in
  check_has "MPQ054" (run (with_requests input requests))

let test_unknown_reference () =
  let input = fixture () in
  let requests =
    List.map
      (fun (r : Dispatch.request) ->
        match r.Dispatch.calls with
        | [] -> r
        | _ :: rest -> { r with Dispatch.calls = "req_nobody" :: rest })
      input.Verify.Verifier.requests
  in
  check_has "MPQ050" (run (with_requests input requests))

let test_call_cycle () =
  let input = fixture () in
  let requests = input.Verify.Verifier.requests in
  let last_name =
    (List.nth requests (List.length requests - 1)).Dispatch.name
  in
  let requests =
    match requests with
    | first :: rest ->
        { first with Dispatch.calls = [ last_name ] } :: rest
    | [] -> []
  in
  check_has "MPQ051" (run (with_requests input requests))

let test_references_scanner () =
  Alcotest.(check (list string))
    "embedded refs" [ "req_A"; "req_P_2" ]
    (Verify.Check_dispatch.references
       "\xe2\x9f\xa6req_A\xe2\x9f\xa7 \xe2\x8b\x88 \xcf\x83(\xe2\x9f\xa6req_P_2\xe2\x9f\xa7)")

let test_catalog_documented () =
  (* every code the checkers can emit is in the catalog, and the
     catalog's codes are unique *)
  let codes = List.map (fun (c, _, _) -> c) Verify.Diag.catalog in
  Alcotest.(check int)
    "no duplicate codes"
    (List.length codes)
    (List.length (List.sort_uniq String.compare codes));
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " described") true
        (Verify.Diag.describe c <> None))
    [ "MPQ001"; "MPQ002"; "MPQ003"; "MPQ010"; "MPQ011"; "MPQ012"; "MPQ020";
      "MPQ030"; "MPQ031"; "MPQ032"; "MPQ033"; "MPQ040"; "MPQ041"; "MPQ050";
      "MPQ051";
      "MPQ052"; "MPQ053"; "MPQ054"; "MPQ055" ]

let () =
  Alcotest.run "verify"
    [ ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_optimizer_clean; prop_extension_clean ] );
      ( "mutations",
        [ ("fixture is clean", `Quick, test_fixture_clean);
          ("corrupt assignment -> MPQ011/012", `Quick, test_corrupt_assignment);
          ("missing executor -> MPQ010", `Quick, test_missing_executor);
          ("tampered profile -> MPQ001", `Quick, test_tampered_profile);
          ("missing profile -> MPQ003", `Quick, test_missing_profile);
          ("dropped encryption -> MPQ011", `Quick, test_dropped_encryption);
          ("double encryption -> MPQ002", `Quick, test_precondition_violation);
          ("widened holders -> MPQ032", `Quick, test_widened_holders);
          ("unauthorized holder -> MPQ030", `Quick, test_unauthorized_holder);
          ("missing key -> MPQ031", `Quick, test_missing_key);
          ("clusterless attribute -> MPQ033", `Quick, test_clusterless_attr);
          ("insufficient scheme -> MPQ040", `Quick, test_insufficient_scheme);
          ("spurious encryption -> MPQ020", `Quick, test_spurious_encryption);
          ("sum over encrypted sum -> MPQ041", `Quick, test_sum_over_encrypted_sum) ]
      );
      ( "dispatch",
        [ ("dropped request -> MPQ055", `Quick, test_dropped_request);
          ("reversed order -> MPQ052", `Quick, test_reversed_requests);
          ("wrong subject -> MPQ053", `Quick, test_wrong_request_subject);
          ("stripped keys -> MPQ054", `Quick, test_stripped_keys);
          ("unknown reference -> MPQ050", `Quick, test_unknown_reference);
          ("call cycle -> MPQ051", `Quick, test_call_cycle);
          ("reference scanner", `Quick, test_references_scanner) ] );
      ( "catalog",
        [ ("codes documented and unique", `Quick, test_catalog_documented) ]
      ) ]
