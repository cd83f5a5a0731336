(* Planner: estimates, cost model units, DP assignment vs exhaustive
   search, leaf-filter folding, pricing/network configuration. *)

open Relalg
open Authz
open Paper_example

(* --- estimates -------------------------------------------------------- *)

let base_stats name =
  match name with
  | "Hosp" ->
      Some
        (Planner.Estimate.of_widths ~card:10000.0
           [ ("S", 12.); ("B", 4.); ("D", 10.); ("T", 10.) ])
  | "Ins" ->
      Some
        (Planner.Estimate.of_widths ~card:8000.0 [ ("C", 12.); ("P", 8.) ])
  | _ -> None

let test_estimate_monotone () =
  let n = build_plan () in
  let stats = Planner.Estimate.annotate ~base:base_stats n.plan in
  let card node = (Imap.find (Plan.id node) stats).Planner.Estimate.card in
  Alcotest.(check bool) "selection reduces" true (card n.n_sel < card n.n_proj);
  Alcotest.(check bool) "join bounded by product" true
    (card n.n_join <= card n.n_sel *. 8000.0);
  Alcotest.(check bool) "group-by reduces" true (card n.n_group <= card n.n_join);
  Alcotest.(check bool) "all positive" true
    (Imap.for_all (fun _ s -> s.Planner.Estimate.card >= 1.0) stats)

let test_estimate_encryption_expands () =
  let n = build_plan () in
  let plain = Planner.Estimate.annotate ~base:base_stats n.plan in
  let enc_plan = Plan.encrypt (Attr.Set.of_names [ "S"; "D"; "T" ]) n.n_proj in
  let enc = Planner.Estimate.annotate ~base:base_stats enc_plan in
  let bytes stats node =
    Planner.Estimate.table_bytes (Imap.find (Plan.id node) stats)
  in
  Alcotest.(check bool) "ciphertext wider than plaintext" true
    (bytes enc enc_plan > bytes plain n.n_proj)

(* --- cost model ------------------------------------------------------- *)

let test_rates_roles () =
  let pricing = Planner.Pricing.make () in
  let r s = (Planner.Pricing.rates_for pricing s).Planner.Pricing.cpu_per_min in
  Alcotest.(check bool) "user = 10x provider" true
    (abs_float (r u /. r x -. 10.0) < 1e-9);
  Alcotest.(check bool) "authority = 3x provider" true
    (abs_float (r h /. r x -. 3.0) < 1e-9)

let test_network_bottleneck () =
  let net = Planner.Network.make () in
  let fast = Planner.Network.transfer_seconds net h i 1e9 in
  let slow = Planner.Network.transfer_seconds net h u 1e9 in
  Alcotest.(check bool) "client link is 100x slower" true
    (slow > 90.0 *. fast);
  Alcotest.(check (float 0.0)) "self transfer is free" 0.0
    (Planner.Network.transfer_seconds net h h 1e9)

let optimizer_result ?policy:(pol = policy) () =
  let n = build_plan () in
  ( n,
    Planner.Optimizer.plan ~policy:pol ~subjects ~base:base_stats
      ~deliver_to:u n.plan )

let test_optimizer_verifies () =
  let _, r = optimizer_result () in
  match Extend.verify ~policy r.Planner.Optimizer.extended with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_optimizer_positive_cost () =
  let _, r = optimizer_result () in
  Alcotest.(check bool) "cost > 0" true
    (Planner.Cost.total r.Planner.Optimizer.cost > 0.0)

(* The planner finds the exhaustive optimum (under the exact
   re-costing), within the 10% this test has always allowed. *)
let test_dp_close_to_exhaustive () =
  let n = build_plan () in
  let config = Opreq.resolve_conflicts Opreq.default n.plan in
  let candidates = Candidates.compute ~policy ~subjects ~config n.plan in
  let pricing = Planner.Pricing.make () in
  let network = Planner.Network.make () in
  let exact assignment =
    let ext = Extend.extend ~policy ~config ~assignment ~deliver_to:u n.plan in
    let scheme_of = Plan_keys.actual_schemes ~original:n.plan ext in
    Planner.Cost.total
      (Planner.Cost.of_extended ~pricing ~network ~base:base_stats ~scheme_of
         ext)
  in
  let all = Planner.Assign.enumerate candidates n.plan in
  Alcotest.(check bool) "search space non-trivial" true (List.length all > 50);
  let best_exhaustive =
    List.fold_left (fun acc a -> Float.min acc (exact a)) infinity all
  in
  let _, r = optimizer_result () in
  let dp_exact = Planner.Cost.total r.Planner.Optimizer.cost in
  Alcotest.(check bool)
    (Printf.sprintf "dp %.6f within 10%% of optimum %.6f" dp_exact
       best_exhaustive)
    true
    (dp_exact <= best_exhaustive *. 1.10 +. 1e-12)

(* DP vs exhaustive across random plans and policies (small candidate
   spaces only; both sides re-costed exactly). *)
let dp_vs_exhaustive (plan, policy') =
  let config = Opreq.resolve_conflicts Opreq.default plan in
  let candidates =
    Candidates.compute ~policy:policy' ~subjects:Gen.subjects ~config plan
  in
  let space =
    Imap.fold
      (fun _ s acc -> acc * max 1 (Subject.Set.cardinal s))
      candidates 1
  in
  QCheck.assume (space > 1 && space <= 200);
  QCheck.assume
    (Imap.for_all (fun _ s -> not (Subject.Set.is_empty s)) candidates);
  let stats =
    Planner.Estimate.annotate
      ~base:(fun _ ->
        Some
          (Planner.Estimate.of_widths ~card:5000.0
             [ ("a", 8.); ("b", 8.); ("c", 12.); ("d", 8.); ("e", 8.);
               ("f", 8.); ("g", 12.); ("h", 8.); ("k", 8.) ]))
      plan
  in
  ignore stats;
  let base _ = None in
  let pricing = Planner.Pricing.make () in
  let network = Planner.Network.make () in
  let exact assignment =
    let ext =
      Extend.extend ~policy:policy' ~config ~assignment
        ~deliver_to:Gen.user plan
    in
    let scheme_of = Plan_keys.actual_schemes ~original:plan ext in
    Planner.Cost.total
      (Planner.Cost.of_extended ~pricing ~network ~base ~scheme_of ext)
  in
  let best =
    List.fold_left
      (fun acc a -> Float.min acc (exact a))
      infinity
      (Planner.Assign.enumerate candidates plan)
  in
  let r =
    Planner.Optimizer.plan ~policy:policy' ~subjects:Gen.subjects
      ~deliver_to:Gen.user plan
  in
  let dp = Planner.Cost.total r.Planner.Optimizer.cost in
  if dp <= (best *. 1.15) +. 1e-9 then true
  else
    QCheck.Test.fail_reportf "dp %.9f vs exhaustive %.9f" dp best

let prop_dp_vs_exhaustive =
  QCheck.Test.make ~count:60 ~name:"DP within 15% of exhaustive, random cases"
    Gen.arbitrary_plan_policy dp_vs_exhaustive

(* The seeds in 1..300 on which the property failed while the planner
   polished an approximate DP with a local search (plans 16-53% above
   the optimum): each runs the property's 60 cases from QCheck's random
   state for that seed, as [QCHECK_SEED] would. *)
let pinned_seeds =
  List.map
    (fun seed ->
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| seed |])
        (QCheck.Test.make ~count:60
           ~name:(Printf.sprintf "QCHECK_SEED=%d" seed)
           Gen.arbitrary_plan_policy dp_vs_exhaustive))
    [ 26; 49; 64; 102; 225; 230; 234; 251 ]

(* The small-space cases the search properties run on: every node has a
   candidate and the space holds 2 to 200 assignments. Gives the
   candidates, the exact breakdown of an assignment (Cost.of_extended of
   Extend.extend under its actual schemes) and the search. *)
let small_case (plan, policy') =
  let config = Opreq.resolve_conflicts Opreq.default plan in
  let candidates =
    Candidates.compute ~policy:policy' ~subjects:Gen.subjects ~config plan
  in
  let space =
    Imap.fold (fun _ s acc -> acc * max 1 (Subject.Set.cardinal s)) candidates 1
  in
  QCheck.assume (space > 1 && space <= 200);
  QCheck.assume
    (Imap.for_all (fun _ s -> not (Subject.Set.is_empty s)) candidates);
  let base _ = None in
  let pricing = Planner.Pricing.make () in
  let network = Planner.Network.make () in
  let exact assignment =
    let ext =
      Extend.extend ~policy:policy' ~config ~assignment ~deliver_to:Gen.user plan
    in
    Planner.Cost.of_extended ~pricing ~network ~base
      ~scheme_of:(Plan_keys.actual_schemes ~original:plan ext)
      ext
  in
  let optimize ?max_latency () =
    Planner.Assign.optimize ~candidates ~policy:policy'
      ~builder:(Extend.builder ~policy:policy' ~config ~deliver_to:Gen.user plan)
      ~pricing ~network ~base
      ~conservative:(Opreq.schemes config plan)
      ?max_latency ()
  in
  (Planner.Assign.enumerate candidates plan, exact, optimize)

(* The search prices with the cost model itself: the cost it reports
   for its pick is the pick's exact cost (Cost.of_extended of
   Extend.extend under the pick's actual schemes), float for float, and
   no assignment of the space, costed the same way, is cheaper. *)
let prop_search_exact =
  QCheck.Test.make ~count:100 ~name:"search exact under actual schemes"
    Gen.arbitrary_plan_policy (fun case ->
      let all, exact, optimize = small_case case in
      let exact a = Planner.Cost.total (exact a) in
      let pick = optimize () in
      let reported = Planner.Cost.total pick.Planner.Assign.cost in
      let own = exact pick.Planner.Assign.assignment in
      if not (Float.equal reported own) then
        QCheck.Test.fail_reportf "reported %h, exact %h" reported own;
      List.iter
        (fun a ->
          let c = exact a in
          if c < reported then
            QCheck.Test.fail_reportf "pick %.9g, cheaper assignment %.9g"
              reported c)
        all;
      true)

(* The search prunes against a lower bound on every plan's cost: were it
   above the optimum, the optimum could be cut and the pick silently
   dearer. It never exceeds the pick's cost (the search's own rounding
   margin aside). *)
let prop_lower_bound_admissible =
  QCheck.Test.make ~count:100 ~name:"lower bound <= optimum"
    Gen.arbitrary_plan_policy (fun case ->
      let _, _, optimize = small_case case in
      let pick = optimize () in
      let total = Planner.Cost.total pick.Planner.Assign.cost in
      if pick.Planner.Assign.lower_bound > total *. (1.0 +. 1e-9) then
        QCheck.Test.fail_reportf "lower bound %h above the optimum %h"
          pick.Planner.Assign.lower_bound total;
      true)

(* Under a latency bound between the fastest assignment's latency and
   the unconstrained pick's, the search picks what [better] would among
   every assignment, each priced under its actual schemes: the cheapest
   within the bound (the fastest when none is). *)
let prop_latency_exact =
  QCheck.Test.make ~count:60 ~name:"search exact under a latency bound"
    (QCheck.pair Gen.arbitrary_plan_policy (QCheck.float_range 0.0 1.0))
    (fun (case, f) ->
      let all, exact, optimize = small_case case in
      let costed = List.map exact all in
      let fastest =
        List.fold_left (fun acc c -> Float.min acc c.Planner.Cost.latency) infinity costed
      in
      let free = (optimize ()).Planner.Assign.cost.Planner.Cost.latency in
      let bound = fastest +. (f *. (Float.max 0.0 (free -. fastest))) in
      let pick = (optimize ~max_latency:bound ()).Planner.Assign.cost in
      let within = List.filter (fun c -> c.Planner.Cost.latency <= bound) costed in
      (match within with
      | [] ->
          if not (Float.equal pick.Planner.Cost.latency fastest) then
            QCheck.Test.fail_reportf "none within %h: pick latency %h, fastest %h"
              bound pick.Planner.Cost.latency fastest
      | _ ->
          let cheapest =
            List.fold_left (fun acc c -> Float.min acc (Planner.Cost.total c)) infinity within
          in
          if pick.Planner.Cost.latency > bound then
            QCheck.Test.fail_reportf "pick latency %h over the bound %h"
              pick.Planner.Cost.latency bound;
          if not (Float.equal (Planner.Cost.total pick) cheapest) then
            QCheck.Test.fail_reportf "pick %h, cheapest within the bound %h"
              (Planner.Cost.total pick) cheapest);
      true)

(* --- performance threshold (Sec. 7) ----------------------------------- *)

let test_latency_threshold () =
  let n = build_plan () in
  let unconstrained =
    Planner.Optimizer.plan ~policy ~subjects ~base:base_stats ~deliver_to:u
      n.plan
  in
  let free_latency = unconstrained.Planner.Optimizer.cost.Planner.Cost.latency in
  (* a bound tighter than the unconstrained plan's latency must yield a
     plan at most as slow as the unconstrained one *)
  let constrained =
    Planner.Optimizer.plan ~policy ~subjects ~base:base_stats ~deliver_to:u
      ~max_latency:(free_latency /. 2.0)
      (build_plan ()).plan
  in
  Alcotest.(check bool) "latency never worse than unconstrained" true
    (constrained.Planner.Optimizer.cost.Planner.Cost.latency
    <= free_latency +. 1e-9);
  (* and a generous bound reproduces the unconstrained optimum *)
  let generous =
    Planner.Optimizer.plan ~policy ~subjects ~base:base_stats ~deliver_to:u
      ~max_latency:(free_latency *. 100.0)
      (build_plan ()).plan
  in
  Alcotest.(check (float 1e-9)) "generous bound = unconstrained cost"
    (Planner.Cost.total unconstrained.Planner.Optimizer.cost)
    (Planner.Cost.total generous.Planner.Optimizer.cost)

let test_latency_critical_path () =
  (* latency is a max over parallel branches, not their sum *)
  let n = build_plan () in
  let r =
    Planner.Optimizer.plan ~policy ~subjects ~base:base_stats ~deliver_to:u
      n.plan
  in
  let c = r.Planner.Optimizer.cost in
  Alcotest.(check bool) "latency <= summed seconds" true
    (c.Planner.Cost.latency <= c.Planner.Cost.seconds +. 1e-9);
  Alcotest.(check bool) "latency positive" true (c.Planner.Cost.latency > 0.0)

(* --- leaf-filter folding --------------------------------------------- *)

let test_fold_removes_leaf_filters () =
  let n = build_plan () in
  let folded, factors = Planner.Leaf_filters.fold n.plan in
  (* σ D='stroke' sits on a projected base: folded away *)
  let selects plan =
    List.length
      (List.filter (fun x -> Plan.operator_name x = "select") (Plan.nodes plan))
  in
  Alcotest.(check int) "one select folded" (selects n.plan - 1) (selects folded);
  Alcotest.(check (float 1e-9)) "selectivity recorded" 0.1
    (List.assoc "Hosp" factors)

let test_fold_keeps_join_conditions () =
  let n = build_plan () in
  let folded, _ = Planner.Leaf_filters.fold n.plan in
  Alcotest.(check bool) "join survives" true
    (List.exists (fun x -> Plan.operator_name x = "join") (Plan.nodes folded));
  (* having (above γ, not source-side) survives *)
  Alcotest.(check string) "having survives" "select" (Plan.operator_name folded)

let test_fold_scales_stats () =
  let n = build_plan () in
  let _, factors = Planner.Leaf_filters.fold n.plan in
  let scaled = Planner.Leaf_filters.scale_stats base_stats factors in
  match (scaled "Hosp", base_stats "Hosp") with
  | Some s, Some b ->
      Alcotest.(check (float 1e-6)) "card scaled by 0.1"
        (b.Planner.Estimate.card *. 0.1)
        s.Planner.Estimate.card
  | _ -> Alcotest.fail "missing stats"

(* --- no-candidate rejection ------------------------------------------ *)

let test_no_candidate_raises () =
  let restrictive =
    Authorization.make ~schemas:[ hosp; ins ]
      [ Authorization.rule ~rel:"Hosp" ~plain:[ "S"; "D"; "T" ] (To u) ]
  in
  let n = build_plan () in
  match
    Planner.Optimizer.plan ~policy:restrictive ~subjects ~base:base_stats
      n.plan
  with
  | exception Planner.Optimizer.No_candidate _ -> ()
  | _ -> Alcotest.fail "expected No_candidate"

let test_user_input_authorization () =
  (* the querying user must be authorized for the projected inputs *)
  let narrow_user =
    Authorization.make ~schemas:[ hosp; ins ]
      [ Authorization.rule ~rel:"Hosp" ~plain:[ "D"; "T" ] (To u);
        (* no S: but the query projects S for the join *)
        Authorization.rule ~rel:"Ins" ~plain:[ "C"; "P" ] (To u);
        Authorization.rule ~rel:"Hosp" ~plain:[ "S"; "D"; "T" ] ~enc:[]
          (To y);
        Authorization.rule ~rel:"Ins" ~plain:[ "C"; "P" ] (To y) ]
  in
  let n = build_plan () in
  match
    Planner.Optimizer.plan ~policy:narrow_user ~subjects ~base:base_stats
      ~deliver_to:u n.plan
  with
  | exception Planner.Optimizer.User_not_authorized _ -> ()
  | _ -> Alcotest.fail "expected User_not_authorized"

let () =
  Alcotest.run "planner"
    [ ( "estimate",
        [ ("cardinalities monotone", `Quick, test_estimate_monotone);
          ("encryption expands bytes", `Quick, test_estimate_encryption_expands)
        ] );
      ( "pricing-network",
        [ ("role factors", `Quick, test_rates_roles);
          ("bandwidth bottleneck", `Quick, test_network_bottleneck) ] );
      ( "optimizer",
        [ ("result verifies", `Quick, test_optimizer_verifies);
          ("positive cost", `Quick, test_optimizer_positive_cost);
          ("dp close to exhaustive", `Slow, test_dp_close_to_exhaustive);
          ("no-candidate rejection", `Quick, test_no_candidate_raises);
          ("latency threshold (Sec. 7)", `Quick, test_latency_threshold);
          ("latency is critical-path", `Quick, test_latency_critical_path);
          ("user input authorization (Sec. 6)", `Quick, test_user_input_authorization) ] );
      ( "dp-differential",
        [ QCheck_alcotest.to_alcotest prop_dp_vs_exhaustive ] );
      ("dp-pinned-seeds", pinned_seeds);
      ( "search-exact",
        [ QCheck_alcotest.to_alcotest prop_search_exact;
          QCheck_alcotest.to_alcotest prop_lower_bound_admissible;
          QCheck_alcotest.to_alcotest prop_latency_exact ] );
      ( "leaf-filters",
        [ ("folds constant leaf filters", `Quick, test_fold_removes_leaf_filters);
          ("keeps join/having", `Quick, test_fold_keeps_join_conditions);
          ("scales statistics", `Quick, test_fold_scales_stats) ] ) ]
