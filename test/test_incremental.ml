(* Staged plan evaluation against evaluation from scratch.

   Assignment after assignment of one query is extended through one
   staged extender, whose extensions share one builder's tables, and
   its schemes derived through one staged actual-scheme derivation,
   which keeps the demands of every subtree it met. Here every
   assignment of a move sequence is evaluated that way and again from
   scratch (a fresh [Extend.extend] and [Plan_keys.actual_schemes]),
   both costed by [Cost.of_extended]. The two must agree exactly: the
   same extended plan, executor and profile at every preorder position,
   the same scheme for every attribute, and bit-equal cost fields. *)

open Relalg
open Authz
module Cost = Planner.Cost

(* One evaluation's outcome: the extension, the scheme of each attribute
   the extension encrypts or decrypts, and the cost; or the planner
   rejection it raised. Which conflicted attribute a costing meets first
   may differ, so a costing's rejection keeps no message. *)
type outcome =
  | Evaluated of Extend.t * (Attr.t * string) list * Cost.breakdown
  | Rejected of string

let evaluate ~extend ~actual ~price assignment =
  match extend assignment with
  | exception Invalid_argument m -> Rejected ("extend: " ^ m)
  | ext -> (
      let scheme_of = actual ext in
      let schemes =
        List.map
          (fun a ->
            ( a,
              match scheme_of a with
              | s -> Mpq_crypto.Scheme.name s
              | exception Invalid_argument m -> "conflict: " ^ m ))
          (Attr.Set.elements (Extend.encrypted_attrs ext))
      in
      match price ~scheme_of ext with
      | cost -> Evaluated (ext, schemes, cost)
      | exception Invalid_argument _ -> Rejected "cost")

(* The staged evaluation, for one query. *)
let incremental ~policy ~config ~pricing ~network ~base ~deliver_to plan =
  let extend = Extend.extender ~policy ~config ~deliver_to plan in
  let actual = Plan_keys.actual_schemes ~original:plan in
  evaluate ~extend ~actual ~price:(Cost.of_extended ~pricing ~network ~base)

let from_scratch ~policy ~config ~pricing ~network ~base ~deliver_to plan =
  evaluate
    ~extend:(fun assignment ->
      Extend.extend ~policy ~config ~assignment ~deliver_to plan)
    ~actual:(fun ext -> Plan_keys.actual_schemes ~original:plan ext)
    ~price:(Cost.of_extended ~pricing ~network ~base)

let bits = Int64.bits_of_float

(* [None] when the outcomes agree, else what differs. *)
let difference a b =
  match (a, b) with
  | Rejected m, Rejected m' ->
      if String.equal m m' then None
      else Some (Printf.sprintf "rejections differ: %s / %s" m m')
  | Rejected m, Evaluated _ -> Some ("only the incremental run rejected: " ^ m)
  | Evaluated _, Rejected m -> Some ("only the fresh run rejected: " ^ m)
  | Evaluated (e, s, c), Evaluated (e', s', c') ->
      let nodes = Plan.nodes e.Extend.plan and nodes' = Plan.nodes e'.Extend.plan in
      let node_difference n n' =
        let executor t n = Imap.find_opt (Plan.id n) t.Extend.assignment in
        let profile t n = Hashtbl.find_opt t.Extend.profiles (Plan.id n) in
        if not (Plan.equal_shape n n') then
          Some ("plans differ at " ^ Plan.operator_name n)
        else if
          not (Option.equal Subject.equal (executor e n) (executor e' n'))
        then Some ("executors differ at " ^ Plan.operator_name n)
        else if not (Option.equal Profile.equal (profile e n) (profile e' n'))
        then Some ("profiles differ at " ^ Plan.operator_name n)
        else None
      in
      let cost_fields (c : Cost.breakdown) =
        List.map bits [ c.cpu; c.io; c.net; c.seconds; c.latency ]
        @ List.map (fun (_, v) -> bits v) c.per_subject
      in
      if List.length nodes <> List.length nodes' then Some "plan sizes differ"
      else
        match List.find_map Fun.id (List.map2 node_difference nodes nodes') with
        | Some d -> Some d
        | None ->
            if s <> s' then Some "actual schemes differ"
            else if
              cost_fields c <> cost_fields c'
              || List.map fst c.per_subject <> List.map fst c'.per_subject
            then
              Some
                (Format.asprintf "costs differ: %a / %a" Cost.pp c Cost.pp c')
            else None

(* --- random move sequences ------------------------------------------- *)

let prop_random_moves =
  QCheck.Test.make ~count:150
    ~name:"random move sequences: incremental = from scratch"
    (QCheck.pair Gen.arbitrary_plan_policy (QCheck.int_bound 1_000_000))
    (fun ((plan, policy), seed) ->
      let config = Opreq.resolve_conflicts Opreq.default plan in
      let candidates =
        Candidates.compute ~policy ~subjects:Gen.subjects ~config plan
      in
      let slots =
        List.map
          (fun (id, set) -> (id, Array.of_list (Subject.Set.elements set)))
          (Imap.bindings candidates)
      in
      QCheck.assume
        (slots <> [] && List.for_all (fun (_, c) -> Array.length c > 0) slots);
      let st = Random.State.make [| seed |] in
      let draw cands = cands.(Random.State.int st (Array.length cands)) in
      let pricing = Planner.Pricing.make () and network = Planner.Network.make () in
      let base _ = None in
      let inc =
        incremental ~policy ~config ~pricing ~network ~base
          ~deliver_to:Gen.user plan
      in
      let fresh =
        from_scratch ~policy ~config ~pricing ~network ~base
          ~deliver_to:Gen.user plan
      in
      let start =
        List.fold_left
          (fun acc (id, cands) -> Imap.add id (draw cands) acc)
          Imap.empty slots
      in
      let slots = Array.of_list slots in
      (* a move reassigns one node; now and then the sequence jumps back
         to its start *)
      let rec go assignment k =
        k = 0
        ||
        match difference (inc assignment) (fresh assignment) with
        | Some d -> QCheck.Test.fail_reportf "after %d moves: %s" (20 - k) d
        | None ->
            let id, cands = slots.(Random.State.int st (Array.length slots)) in
            let next =
              if Random.State.int st 6 = 0 then start
              else Imap.add id (draw cands) assignment
            in
            go next (k - 1)
      in
      go start 20)

(* --- every single-node move on TPC-H ---------------------------------- *)

(* Around each served plan's chosen assignment, every single-node move,
   in node id order, through one staged evaluation per plan. *)
let test_tpch_sweep_moves () =
  let base = Tpch.Tpch_schema.base_stats ~sf:0.001 in
  let pricing = Tpch.Scenarios.pricing and network = Planner.Network.make () in
  let deliver_to = Tpch.Scenarios.user in
  let moves = ref 0 in
  List.iter
    (fun scenario ->
      let policy = Tpch.Scenarios.policy scenario in
      List.iter
        (fun (q, _, _) ->
          let plan = Tpch.Tpch_queries.query q in
          match
            Planner.Optimizer.plan ~policy ~subjects:Tpch.Scenarios.subjects
              ~pricing ~base ~deliver_to plan
          with
          | exception Planner.Optimizer.No_candidate _ -> ()
          | r ->
              let config = r.Planner.Optimizer.config in
              let inc =
                incremental ~policy ~config ~pricing ~network ~base
                  ~deliver_to plan
              in
              let fresh =
                from_scratch ~policy ~config ~pricing ~network ~base
                  ~deliver_to plan
              in
              let chosen = r.Planner.Optimizer.assignment in
              let check label assignment =
                incr moves;
                match difference (inc assignment) (fresh assignment) with
                | None -> ()
                | Some d ->
                    Alcotest.failf "%s Q%d %s: %s"
                      (Tpch.Scenarios.name scenario) q label d
              in
              check "chosen plan" chosen;
              Imap.iter
                (fun id cands ->
                  Subject.Set.iter
                    (fun s ->
                      if not (Subject.equal s (Imap.find id chosen)) then
                        check
                          (Printf.sprintf "node %d to %s" id (Subject.name s))
                          (Imap.add id s chosen))
                    cands)
                r.Planner.Optimizer.candidates)
        Tpch.Tpch_queries.all)
    Tpch.Scenarios.all;
  Alcotest.(check bool) "moves were evaluated" true (!moves > 66)

let () =
  Alcotest.run "incremental"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest prop_random_moves;
          ("every sweep move, TPC-H 22x3", `Quick, test_tpch_sweep_moves) ] ) ]
