(* Pinned TPC-H plans: one digest per (configuration, scenario, query).

   Two configurations per pair:
   - "served": the inputs the query service plans with in the TPC-H
     workloads — the scenario's policy, its subjects and prices, base
     statistics at sf 0.001, results delivered to the user, default
     config and network;
   - "paper": [Scenarios.optimize] at its default (1 GB) scale.

   A planner change that claims to leave plans alone must keep all 132
   digests, and no plan may cost more than the exact cost pinned beside
   its digest. On a mismatch the test prints the configuration and the
   canonical text the digest covers, so the diff is readable. *)

open Relalg
module O = Planner.Optimizer

(* The canonical text of one planning outcome: the extended plan's
   structural fingerprint, the executor at each preorder position, the
   key clusters, the request count and the cost fields, floats printed
   exactly (%h). *)
let digest text = Digest.to_hex (Digest.string text)

let canonical (r : O.result) =
  let plan = r.O.extended.Authz.Extend.plan
  and assignment = r.O.extended.Authz.Extend.assignment in
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "plan %s" (digest (Planner.Fingerprint.of_plan plan));
  let positions = Plan.preorder_positions plan in
  let by_pos = Array.make (Plan.size plan) "" in
  Plan.iter
    (fun n ->
      match Hashtbl.find_opt positions (Plan.id n) with
      | Some p ->
          by_pos.(p) <-
            (match Authz.Imap.find_opt (Plan.id n) assignment with
            | Some s -> Planner.Fingerprint.of_subject s
            | None -> "-")
      | None -> ())
    plan;
  line "assignees %s" (String.concat " " (Array.to_list by_pos));
  List.iter
    (fun (c : Authz.Plan_keys.cluster) ->
      line "cluster %s" (Format.asprintf "%a" Authz.Plan_keys.pp_cluster c))
    r.O.clusters;
  line "requests %d" (List.length r.O.requests);
  let c = r.O.cost in
  line "cost cpu=%h io=%h net=%h seconds=%h latency=%h" c.Planner.Cost.cpu
    c.Planner.Cost.io c.Planner.Cost.net c.Planner.Cost.seconds
    c.Planner.Cost.latency;
  List.iter
    (fun (s, v) -> line "subject %s %h" (Authz.Subject.name s) v)
    c.Planner.Cost.per_subject;
  Buffer.contents buf

(* A rejection is an outcome to pin (at an infinite cost); any other
   exception becomes a mismatch that names its configuration. *)
let outcome f =
  match f () with
  | r -> (canonical r, Planner.Cost.total r.O.cost)
  | exception (O.No_candidate m | O.User_not_authorized m) ->
      ("rejected " ^ m, Float.infinity)
  | exception e -> ("raised " ^ Printexc.to_string e, Float.nan)

let served sc q =
  outcome (fun () ->
      O.plan ~policy:(Tpch.Scenarios.policy sc) ~subjects:Tpch.Scenarios.subjects
        ~pricing:Tpch.Scenarios.pricing
        ~base:(Tpch.Tpch_schema.base_stats ~sf:0.001)
        ~deliver_to:Tpch.Scenarios.user (Tpch.Tpch_queries.query q))

let paper sc q =
  outcome (fun () ->
      Tpch.Scenarios.optimize ~scenario:sc (Tpch.Tpch_queries.query q))

let configurations =
  List.concat_map
    (fun (kind, f) ->
      List.concat_map
        (fun sc ->
          List.map
            (fun (q, _, _) ->
              ( Printf.sprintf "%s/%s/q%d" kind (Tpch.Scenarios.name sc) q,
                fun () -> f sc q ))
            Tpch.Tpch_queries.all)
        Tpch.Scenarios.all)
    [ ("served", served); ("paper", paper) ]

let test_pinned () =
  Alcotest.(check int) "configurations"
    (List.length Tpch_plans_expected.plans)
    (List.length configurations);
  let mismatches =
    List.filter
      (fun (name, f) ->
        let text, cost = f () in
        let want, bound =
          match
            List.find_opt (fun (n, _, _) -> n = name) Tpch_plans_expected.plans
          with
          | Some (_, d, c) -> (d, c)
          | None -> ("(missing)", Float.nan)
        in
        let got = digest text in
        if not (cost <= bound) then begin
          Printf.printf "DEARER %s: pinned cost %h, got %h\n" name bound cost;
          true
        end
        else if String.equal got want then false
        else begin
          Printf.printf "MISMATCH %s: expected %s, got %s\n%s\n" name want got
            text;
          true
        end)
      configurations
  in
  Alcotest.(check int) "mismatched plans" 0 (List.length mismatches)

let pinned_cost name =
  match List.find_opt (fun (n, _, _) -> n = name) Tpch_plans_expected.plans with
  | Some (_, _, c) -> c
  | None -> Alcotest.failf "%s is not pinned" name

(* The assignment search as Optimizer.plan runs it, on the same inputs
   as [served] and [paper]. *)
let search ~policy ~base plan =
  let config = Authz.Opreq.resolve_conflicts Authz.Opreq.default plan in
  let candidates =
    Authz.Candidates.compute ~policy ~subjects:Tpch.Scenarios.subjects ~config plan
  in
  Planner.Assign.optimize ~candidates ~policy
    ~builder:(Authz.Extend.builder ~policy ~config ~deliver_to:Tpch.Scenarios.user plan)
    ~pricing:Tpch.Scenarios.pricing ~network:(Planner.Network.make ()) ~base
    ~conservative:(Authz.Opreq.schemes config plan)
    ()

(* The lower bound the search prunes against never exceeds the optimum
   (the pinned cost, which the search reproduces), on every
   configuration that plans. *)
let test_lower_bound () =
  let checked = ref 0 in
  List.iter
    (fun (kind, f) ->
      List.iter
        (fun sc ->
          List.iter
            (fun (q, _, _) ->
              let name = Printf.sprintf "%s/%s/q%d" kind (Tpch.Scenarios.name sc) q in
              let cost = pinned_cost name in
              if Float.is_finite cost then begin
                let pick = f sc (Tpch.Tpch_queries.query q) in
                Alcotest.(check (float 0.0)) (name ^ ": the pinned cost") cost
                  (Planner.Cost.total pick.Planner.Assign.cost);
                if pick.Planner.Assign.lower_bound > cost *. (1.0 +. 1e-9) then
                  Alcotest.failf "%s: lower bound %h above the optimum %h" name
                    pick.Planner.Assign.lower_bound cost;
                incr checked
              end)
            Tpch.Tpch_queries.all)
        Tpch.Scenarios.all)
    [ ( "served",
        fun sc plan ->
          search ~policy:(Tpch.Scenarios.policy sc)
            ~base:(Tpch.Tpch_schema.base_stats ~sf:0.001)
            plan );
      ( "paper",
        fun sc plan ->
          let plan, factors = Planner.Leaf_filters.fold plan in
          search ~policy:(Tpch.Scenarios.policy sc)
            ~base:
              (Planner.Leaf_filters.scale_stats
                 (Tpch.Tpch_schema.base_stats ~sf:1.0)
                 factors)
            plan ) ];
  Alcotest.(check bool) "some configuration plans" true (!checked > 0)

(* Served UAPenc q1's optimum is 2.29x the plaintext-only lower bound
   the search once started from, which took four bound rounds; it now
   takes one, at its pinned cost. *)
let test_q1_one_round () =
  Obs.reset ();
  Obs.set_enabled true;
  let sc = List.find (fun sc -> Tpch.Scenarios.name sc = "UAPenc") Tpch.Scenarios.all in
  let text, cost =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> served sc 1)
  in
  ignore text;
  let rounds = Obs.counter "planner.search.rounds" in
  Obs.reset ();
  Alcotest.(check (float 0.0)) "pinned cost" (pinned_cost "served/UAPenc/q1") cost;
  Alcotest.(check bool) (Printf.sprintf "%d rounds, fewer than 4" rounds) true
    (rounds >= 1 && rounds < 4)

let () =
  Alcotest.run "tpch-plans"
    [ ( "pinned",
        [ Alcotest.test_case "132 plan digests" `Slow test_pinned;
          Alcotest.test_case "lower bound <= pinned cost" `Slow test_lower_bound;
          Alcotest.test_case "served UAPenc q1 in one bound round" `Quick test_q1_one_round ] ) ]
