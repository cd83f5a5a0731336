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

let () =
  Alcotest.run "tpch-plans"
    [ ("pinned", [ Alcotest.test_case "132 plan digests" `Slow test_pinned ]) ]
