(* Fault injection and the resilient runtime: spec parsing, determinism,
   retry/timeout recovery, authorized failover re-planning, degraded
   aborts, and the safety property that no injected fault can widen what
   any subject sees or change a completed result. *)

open Authz
open Paper_example

let planned assignment_of =
  let n = build_plan () in
  let config = Opreq.resolve_conflicts Opreq.default n.plan in
  let ext =
    Extend.extend ~policy ~config ~assignment:(assignment_of n) ~deliver_to:u
      n.plan
  in
  let clusters = Plan_keys.compute ~config ~original:n.plan ext in
  (n, config, ext, clusters)

(* A replanner over the paper example that additionally pushes every
   re-planned extension through the static verifier, failing the test on
   any Error-severity finding (acceptance: every failover-replanned
   assignment verifies clean). *)
let verified_replanner ~exclude =
  let n = build_plan () in
  let remaining =
    List.filter (fun s -> not (Subject.Set.mem s exclude)) subjects
  in
  match
    Planner.Optimizer.plan ~policy ~subjects:remaining ~deliver_to:u n.plan
  with
  | r ->
      let diags =
        Verify.Verifier.run
          { Verify.Verifier.policy;
            config = r.Planner.Optimizer.config;
            extended = r.Planner.Optimizer.extended;
            clusters = r.Planner.Optimizer.clusters;
            requests = r.Planner.Optimizer.requests }
      in
      if Verify.Diag.has_errors diags then
        Alcotest.failf "replanned extension has verifier errors:\n%s"
          (Verify.Diag.render (Verify.Diag.errors diags));
      Some (r.Planner.Optimizer.extended, r.Planner.Optimizer.clusters)
  | exception
      ( Planner.Optimizer.No_candidate _
      | Planner.Optimizer.User_not_authorized _ ) ->
      None

let run_sim ?faults ?retry ?replan ?(policy = policy)
    ?(tables = Test_engine_data.tables ()) () =
  let _, config, ext, clusters = planned assignment_7a in
  Distsim.Runtime.execute ~policy
    ~pki:(Distsim.Pki.create ())
    ~keyring:(Mpq_crypto.Keyring.create ~seed:5L ())
    ~user:u
    ~tables ~config ?faults ?retry ?replan ~extended:ext ~clusters ()

let expected = Test_engine_data.expected

let render_trace outcome =
  String.concat "\n"
    (List.map
       (fun e -> Format.asprintf "%a" Distsim.Runtime.pp_event e)
       outcome.Distsim.Runtime.trace)

(* Plan-node ids come from a process-global counter, so two runs that
   each build (and re-plan) their own plan render different raw ids.
   Renumber [n<digits>] tokens by first appearance; everything else in
   the trace must match byte for byte. *)
let canonical_node_ids s =
  let seen = Hashtbl.create 16 in
  Str.global_substitute
    (Str.regexp "n[0-9]+")
    (fun whole ->
      let tok = Str.matched_string whole in
      match Hashtbl.find_opt seen tok with
      | Some c -> c
      | None ->
          let c = Printf.sprintf "n#%d" (Hashtbl.length seen) in
          Hashtbl.add seen tok c;
          c)
    s

let count outcome p =
  List.length (List.filter p outcome.Distsim.Runtime.trace)

let completed outcome =
  match outcome.Distsim.Runtime.status with
  | Distsim.Runtime.Completed t -> Some t
  | Distsim.Runtime.Degraded _ -> None

(* --- spec parsing ------------------------------------------------------ *)

let test_parse_spec () =
  let spec =
    Distsim.Faults.parse " X:crash@4, Y:transient=0.25; Z:slow=1500@0.5 ,H:corrupt=0.1"
  in
  Alcotest.(check string)
    "canonical render" "X:crash@4,Y:transient=0.25,Z:slow=1500@0.5,H:corrupt=0.1"
    (Distsim.Faults.render spec);
  Alcotest.(check string) "slow without prob" "Y:slow=200"
    (Distsim.Faults.render (Distsim.Faults.parse "Y:slow=200"));
  Alcotest.(check int) "empty spec" 0
    (List.length (Distsim.Faults.parse "  "))

let test_parse_spec_errors () =
  let rejects s =
    match Distsim.Faults.parse s with
    | _ -> Alcotest.failf "accepted bad spec %S" s
    | exception Distsim.Faults.Bad_spec _ -> ()
  in
  rejects "nocolon";
  rejects "X:flaky=0.5";
  rejects "X:transient=1.5";
  rejects "X:crash@-1";
  rejects ":transient=0.5";
  rejects "X:slow=abc"

(* --- no faults = old behaviour ----------------------------------------- *)

let test_no_faults_completes () =
  let outcome = run_sim () in
  (match completed outcome with
  | Some t ->
      Alcotest.(check bool) "result" true
        (Engine.Table.equal_bag t (expected ()))
  | None -> Alcotest.fail "degraded without faults");
  Alcotest.(check int) "no retries" 0
    (count outcome (function Distsim.Runtime.Retry _ -> true | _ -> false));
  Alcotest.(check int) "no replans" 0 outcome.Distsim.Runtime.replans

(* --- determinism -------------------------------------------------------- *)

let test_determinism () =
  let spec =
    Distsim.Faults.parse "X:crash@6,Y:transient=0.3,Z:slow=1500@0.4"
  in
  let once () =
    run_sim
      ~faults:(Distsim.Faults.make ~seed:7 spec)
      ~replan:verified_replanner ()
  in
  let a = once () and b = once () in
  Alcotest.(check string) "byte-identical trace"
    (canonical_node_ids (render_trace a))
    (canonical_node_ids (render_trace b));
  Alcotest.(check int) "same simulated clock" a.Distsim.Runtime.clock_ms
    b.Distsim.Runtime.clock_ms;
  Alcotest.(check int) "same replans" a.Distsim.Runtime.replans
    b.Distsim.Runtime.replans;
  match (completed a, completed b) with
  | Some ta, Some tb ->
      Alcotest.(check bool) "same result" true (Engine.Table.equal_bag ta tb)
  | None, None -> ()
  | _ -> Alcotest.fail "one run completed, the other degraded"

(* --- transient faults are retried; denials are not ---------------------- *)

let test_transient_retried_to_success () =
  (* some seed in 1..50 must both inject a transient fault and complete *)
  let spec = Distsim.Faults.parse "X:transient=0.3" in
  let rec search seed =
    if seed > 50 then Alcotest.fail "no seed produced a retried success"
    else
      let outcome =
        run_sim ~faults:(Distsim.Faults.make ~seed spec) ()
      in
      let retries =
        count outcome (function Distsim.Runtime.Retry _ -> true | _ -> false)
      in
      match completed outcome with
      | Some t when retries > 0 ->
          Alcotest.(check bool) "retried run still correct" true
            (Engine.Table.equal_bag t (expected ()))
      | Some _ -> search (seed + 1)
      | None -> Alcotest.fail "transient faults must not degrade the run"
  in
  search 1

(* Ins with one ciphertext cell in its plaintext column P. The plan and
   the policy are the paper's, so the pre-dispatch gate passes; the
   runtime's consistency audit refuses Ins's base table, which crosses
   to X's join only after Hosp's side has been released. *)
let tampered_tables () =
  let enc =
    Relalg.Value.Enc { Relalg.Value.scheme = "det"; key_id = "k"; payload = "p" }
  in
  List.map
    (fun (name, t) ->
      if name <> "Ins" then (name, t)
      else
        ( name,
          Engine.Table.create (Engine.Table.attrs t)
            (List.mapi
               (fun i row -> if i = 0 then [| row.(0); enc |] else row)
               (Engine.Table.rows t)) ))
    (Test_engine_data.tables ())

let test_denial_never_retried () =
  (* enable the Obs counters so we can count retries across the aborted
     run, whose trace is lost to the exception *)
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  (match run_sim ~tables:(tampered_tables ()) () with
  | _ -> Alcotest.fail "expected Distributed_violation"
  | exception Distsim.Runtime.Distributed_violation msg ->
      Alcotest.(check bool) ("denial message: " ^ msg) true
        (Str.string_match
           (Str.regexp
              ".*does not match its profile: P mixed plaintext/ciphertext")
           msg 0));
  Alcotest.(check bool) "a release check ran before the denial" true
    (Obs.counter "distsim.release_checks" >= 1);
  Alcotest.(check int) "an authorization denial is never retried" 0
    (Obs.counter "distsim.retries")

(* --- failover re-planning ----------------------------------------------- *)

let test_crash_fails_over () =
  (* X (join + group-by in Fig. 7a) is down from the start: the runtime
     must declare it dead and re-plan onto the surviving subjects *)
  let outcome =
    run_sim
      ~faults:(Distsim.Faults.make ~seed:1 (Distsim.Faults.parse "X:crash@0"))
      ~replan:verified_replanner ()
  in
  Alcotest.(check bool) "at least one failover" true
    (count outcome
       (function Distsim.Runtime.Failover_replanned _ -> true | _ -> false)
    >= 1);
  Alcotest.(check bool) "replan counter" true
    (outcome.Distsim.Runtime.replans >= 1);
  match completed outcome with
  | Some t ->
      Alcotest.(check bool) "failover preserves the result" true
        (Engine.Table.equal_bag t (expected ()))
  | None -> Alcotest.fail "an authorized alternative exists: X is avoidable"

let test_dead_authority_degrades () =
  (* H owns Hosp: no re-planning can route around it *)
  let outcome =
    run_sim
      ~faults:(Distsim.Faults.make ~seed:1 (Distsim.Faults.parse "H:crash@0"))
      ~replan:verified_replanner ()
  in
  (match outcome.Distsim.Runtime.status with
  | Distsim.Runtime.Completed _ ->
      Alcotest.fail "completed without its data authority"
  | Distsim.Runtime.Degraded d ->
      Alcotest.(check bool) "H among the dead" true
        (List.exists (Subject.equal h) d.Distsim.Runtime.dead));
  Alcotest.(check bool) "degraded abort in trace" true
    (count outcome
       (function Distsim.Runtime.Degraded_abort _ -> true | _ -> false)
    = 1)

let test_no_replanner_degrades () =
  let outcome =
    run_sim
      ~faults:(Distsim.Faults.make ~seed:1 (Distsim.Faults.parse "X:crash@0"))
      ()
  in
  match outcome.Distsim.Runtime.status with
  | Distsim.Runtime.Completed _ -> Alcotest.fail "X was down"
  | Distsim.Runtime.Degraded _ -> ()

(* --- safety sweep -------------------------------------------------------- *)

(* Acceptance: across >= 20 seeds of crash + transient + slow faults,
   every completed run equals the fault-free result, every re-planned
   extension verifies clean (verified_replanner), and every transfer
   follows the release check that allows it. *)
let test_safety_sweep () =
  let spec =
    Distsim.Faults.parse
      "X:crash@6,Y:transient=0.25,Z:transient=0.25,X:transient=0.2"
  in
  let completed_runs = ref 0 and degraded_runs = ref 0 in
  for seed = 1 to 25 do
    let outcome =
      run_sim
        ~faults:(Distsim.Faults.make ~seed spec)
        ~replan:verified_replanner ()
    in
    (* trace safety: every transfer of node n from S to R follows a
       release check of n by S for R, in the same pass (a failover
       starts a new one) *)
    let checked = ref [] in
    List.iter
      (fun e ->
        match e with
        | Distsim.Runtime.Release_check { by; for_; node_id } ->
            checked := (node_id, by, for_) :: !checked
        | Distsim.Runtime.Failover_replanned _ -> checked := []
        | Distsim.Runtime.Data_transfer { from_; to_; node_id; _ } ->
            if
              not
                (List.exists
                   (fun (n, by, for_) ->
                     n = node_id && Subject.equal by from_ && Subject.equal for_ to_)
                   !checked)
            then
              Alcotest.failf "seed %d: transfer n%d %s->%s without a release check"
                seed node_id (Subject.name from_) (Subject.name to_)
        | _ -> ())
      outcome.Distsim.Runtime.trace;
    match completed outcome with
    | Some t ->
        incr completed_runs;
        if not (Engine.Table.equal_bag t (expected ())) then
          Alcotest.failf "seed %d: completed with a wrong result" seed
    | None -> incr degraded_runs
  done;
  (* the sweep must actually exercise recovery, not degrade everywhere *)
  Alcotest.(check bool)
    (Printf.sprintf "most runs complete (%d completed, %d degraded)"
       !completed_runs !degraded_runs)
    true
    (!completed_runs >= 15)

let () =
  Alcotest.run "faults"
    [ ( "spec",
        [ ("parse + render", `Quick, test_parse_spec);
          ("malformed specs rejected", `Quick, test_parse_spec_errors) ] );
      ( "recovery",
        [ ("fault-free run unchanged", `Quick, test_no_faults_completes);
          ("same seed, byte-identical trace", `Quick, test_determinism);
          ("transient retried to success", `Quick,
           test_transient_retried_to_success);
          ("authorization denial never retried", `Quick,
           test_denial_never_retried) ] );
      ( "failover",
        [ ("crashed provider fails over", `Quick, test_crash_fails_over);
          ("dead authority degrades", `Quick, test_dead_authority_degrades);
          ("no replanner degrades", `Quick, test_no_replanner_degrades) ] );
      ( "safety",
        [ ("25-seed sweep: no wrong answer, no unauthorized release",
           `Slow, test_safety_sweep) ] ) ]
