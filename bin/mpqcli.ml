(* mpqcli — authorization-aware multi-provider query planning from the
   command line.

     mpqcli plan       -p policy.mpq -q "select ..."   plan + profiles + Λ
     mpqcli optimize   -p policy.mpq -q "select ..."   full planning report
     mpqcli serve      -p policy.mpq -f queries.sql    query loop, plan cache
     mpqcli tpch       -n 5 -s UAPenc                   TPC-H query report
     mpqcli scenarios                                   Fig. 9/10 summary
     mpqcli example                                     built-in policy file

   The policy file format is documented in `mpqcli example` output. *)

open Cmdliner
open Relalg

(* Exit-code discipline (see EXIT STATUS in --help): 0 success, 1 usage,
   parse or I/O errors, 2 authorization or verification failures,
   3 degraded (faults defeated every authorized alternative). *)
let exit_ok = 0
let exit_input_error = 1
let exit_verification = 2
let exit_degraded = 3

let guard f =
  try f () with
  | Authz.Policy_dsl.Syntax_error (line, msg) ->
      Printf.eprintf "mpqcli: policy syntax error at line %d: %s\n" line msg;
      exit_input_error
  | Mpq_sql.Sql_lexer.Lex_error (msg, pos) ->
      Printf.eprintf "mpqcli: SQL lexical error at %d: %s\n" pos msg;
      exit_input_error
  | Mpq_sql.Sql_parser.Parse_error msg | Mpq_sql.Sql_plan.Plan_error msg ->
      Printf.eprintf "mpqcli: SQL error: %s\n" msg;
      exit_input_error
  | Engine.Csv.Csv_error msg ->
      Printf.eprintf "mpqcli: CSV error: %s\n" msg;
      exit_input_error
  | Distsim.Faults.Bad_spec msg ->
      Printf.eprintf "mpqcli: bad fault spec: %s\n" msg;
      exit_input_error
  | Sys_error msg | Failure msg | Invalid_argument msg ->
      Printf.eprintf "mpqcli: %s\n" msg;
      exit_input_error
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "mpqcli: %s%s: %s\n" fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e);
      exit_input_error
  | Planner.Optimizer.No_candidate msg
  | Planner.Optimizer.User_not_authorized msg ->
      Printf.eprintf "mpqcli: query rejected: %s\n" msg;
      exit_verification
  | Planner.Optimizer.Verification_failed diags ->
      Printf.eprintf "mpqcli: %s\n"
        (Planner.Optimizer.self_check_message diags);
      exit_verification
  | Distsim.Runtime.Distributed_violation msg ->
      Printf.eprintf "mpqcli: %s\n" msg;
      exit_verification
  | Distsim.Pki.Bad_envelope msg ->
      Printf.eprintf "mpqcli: envelope rejected: %s\n" msg;
      exit_verification

let exit_status_man =
  [ `S "EXIT STATUS";
    `P "$(b,0) on success.";
    `P "$(b,1) on usage, policy/SQL parse, or I/O errors.";
    `P "$(b,2) when a query is rejected by the authorization model, the \
        static verifier reports an Error-severity diagnostic, or an \
        envelope fails authentication.";
    `P "$(b,3) when injected faults leave no authorized alternative and \
        the run ends degraded (see $(b,--faults))." ]

(* --- observability ---------------------------------------------------- *)

let stats_arg =
  let fmt = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(
    value
    & opt ~vopt:(Some `Text) (some fmt) None
    & info [ "stats" ] ~docv:"FORMAT"
        ~doc:
          "Collect tracing spans and counters while the command runs and \
           print the report to standard error afterwards (stdout keeps its \
           documented output). $(docv) is $(b,text) (span tree + counters) \
           or $(b,json) (one machine-readable JSON object).")

let span_trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print the tracing span tree (wall-clock per phase) to standard \
           error; a lighter $(b,--stats) without the counters.")

let obs_args =
  Term.(const (fun stats trace -> (stats, trace)) $ stats_arg $ span_trace_arg)

(* Enable the Obs collectors around [f] and render the requested reports
   to stderr when it finishes — also on failure, where the partial trace
   is exactly what one wants to see. *)
let with_obs (stats, trace) f =
  if stats = None && not trace then f ()
  else begin
    Obs.reset ();
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        (match stats with
        | Some `Text -> prerr_string (Obs.render_text ())
        | Some `Json -> prerr_endline (Json.to_string (Obs.render_json ()))
        | None -> prerr_string (Obs.render_text ~counters:false ()));
        Obs.set_enabled false)
      f
  end

let load_policy path =
  match path with
  | Some p -> Authz.Policy_dsl.load p
  | None -> Authz.Policy_dsl.parse Authz.Policy_dsl.example

let parse_query ?(raw = false) env q =
  let plan =
    Mpq_sql.Sql_plan.parse_and_plan ~catalog:env.Authz.Policy_dsl.schemas q
  in
  if raw then plan
  else
    (* classical optimization first (Sec. 1's premise): normalize, then
       order the joins by estimated cost *)
    Planner.Join_order.reorder
      ~base:(fun _ -> None)
      (Planner.Rewrite.normalize plan)

let policy_arg =
  let doc = "Policy file (schemas, subjects, authorizations). Defaults to \
             the paper's running example." in
  Arg.(value & opt (some file) None & info [ "p"; "policy" ] ~doc)

let query_arg =
  let doc = "SQL query (select-from-where-group by-having subset)." in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~doc)

(* --- plan ----------------------------------------------------------- *)

let plan_cmd =
  let explain_arg =
    Arg.(value & opt (some string) None
         & info [ "explain" ]
             ~doc:"Explain why the named subject is (not) a candidate for \
                   each operation.")
  in
  let run policy_path query explain_subject obs =
    guard @@ fun () ->
    with_obs obs @@ fun () ->
    let env = load_policy policy_path in
    let plan = parse_query env query in
    let profiles = Authz.Profile.annotate plan in
    print_endline "--- plan with profiles (Def. 3.1) ---";
    print_string
      (Plan_printer.to_ascii
         ~annot:(fun n ->
           Option.map Authz.Profile.to_string
             (Hashtbl.find_opt profiles (Plan.id n)))
         plan);
    print_endline "\n--- subject views ---";
    List.iter
      (fun s ->
        Format.printf "  %-4s %a@." (Authz.Subject.name s)
          Authz.Authorization.pp_view
          (Authz.Authorization.view env.Authz.Policy_dsl.policy s))
      env.Authz.Policy_dsl.subjects;
    print_endline "\n--- assignment candidates (Def. 5.3) ---";
    let config = Authz.Opreq.resolve_conflicts Authz.Opreq.default plan in
    let lam =
      Authz.Candidates.compute ~policy:env.Authz.Policy_dsl.policy
        ~subjects:env.Authz.Policy_dsl.subjects ~config plan
    in
    Plan.iter
      (fun n ->
        if not (Authz.Candidates.is_source_side n) then
          Format.printf "  %-30s Λ = %a@."
            (Plan_printer.node_label n)
            Authz.Subject.pp_set
            (Authz.Candidates.candidates_of lam n))
      plan;
    (match explain_subject with
    | None -> ()
    | Some name ->
        Printf.printf "\n--- why is %s (not) a candidate? ---\n" name;
        Plan.iter
          (fun n ->
            if not (Authz.Candidates.is_source_side n) then
              List.iter
                (fun (s, verdict) ->
                  if Authz.Subject.name s = name then
                    match verdict with
                    | None ->
                        Format.printf "  %-30s candidate@."
                          (Plan_printer.node_label n)
                    | Some v ->
                        Format.printf "  %-30s excluded: %a@."
                          (Plan_printer.node_label n)
                          Authz.Authorized.pp_violation v)
                (Authz.Candidates.explain ~policy:env.Authz.Policy_dsl.policy
                   ~subjects:env.Authz.Policy_dsl.subjects ~config plan n))
          plan);
    exit_ok
  in
  let doc = "show a query plan, its profiles and candidate sets" in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(const run $ policy_arg $ query_arg $ explain_arg $ obs_args)

(* --- optimize ------------------------------------------------------- *)

let optimize_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON planning report.")
  in
  let run policy_path query json obs =
    guard @@ fun () ->
    with_obs obs @@ fun () ->
    let env = load_policy policy_path in
    let plan = parse_query env query in
    let user =
      List.find_opt
        (fun s -> s.Authz.Subject.role = Authz.Subject.User)
        env.Authz.Policy_dsl.subjects
    in
    let r =
      Planner.Optimizer.plan ~policy:env.Authz.Policy_dsl.policy
        ~subjects:env.Authz.Policy_dsl.subjects ?deliver_to:user plan
    in
    if json then print_endline (Planner.Report.to_string r)
    else print_string (Planner.Optimizer.report r);
    exit_ok
  in
  let doc = "authorization-aware planning: assignment, encryption, keys, \
             dispatch, cost" in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(const run $ policy_arg $ query_arg $ json_arg $ obs_args)

(* --- tpch ----------------------------------------------------------- *)

let tpch_cmd =
  let number =
    Arg.(value & opt int 5 & info [ "n"; "number" ] ~doc:"TPC-H query (1-22).")
  in
  let scenario =
    Arg.(
      value
      & opt (enum [ ("UA", Tpch.Scenarios.UA); ("UAPenc", Tpch.Scenarios.UAPenc);
                    ("UAPmix", Tpch.Scenarios.UAPmix) ])
          Tpch.Scenarios.UAPenc
      & info [ "s"; "scenario" ] ~doc:"Authorization scenario.")
  in
  let run n scenario obs =
    guard @@ fun () ->
    with_obs obs @@ fun () ->
    let r = Tpch.Scenarios.optimize ~scenario (Tpch.Tpch_queries.query n) in
    print_string (Planner.Optimizer.report r);
    exit_ok
  in
  let doc = "plan a TPC-H query under an authorization scenario (Sec. 7)" in
  Cmd.v (Cmd.info "tpch" ~doc) Term.(const run $ number $ scenario $ obs_args)

(* --- scenarios ------------------------------------------------------ *)

let scenarios_cmd =
  let run obs =
    guard @@ fun () ->
    with_obs obs @@ fun () ->
    Printf.printf "%-4s %10s %10s %10s\n" "q" "UA" "UAPenc" "UAPmix";
    let totals = Hashtbl.create 3 in
    List.iter
      (fun (q, _, build) ->
        let cost sc =
          Planner.Cost.total
            (Tpch.Scenarios.optimize ~scenario:sc (build ())).Planner.Optimizer.cost
        in
        let ua = cost Tpch.Scenarios.UA in
        let row =
          List.map
            (fun sc ->
              let c = cost sc /. ua in
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals sc) in
              Hashtbl.replace totals sc (prev +. c);
              c)
            Tpch.Scenarios.all
        in
        match row with
        | [ a; b; c ] -> Printf.printf "%-4d %10.3f %10.3f %10.3f\n" q a b c
        | _ -> ())
      Tpch.Tpch_queries.all;
    let total sc = Hashtbl.find totals sc in
    Printf.printf "\nsavings vs UA: UAPenc %.1f%%  UAPmix %.1f%%\n"
      (100. *. (1. -. (total Tpch.Scenarios.UAPenc /. total Tpch.Scenarios.UA)))
      (100. *. (1. -. (total Tpch.Scenarios.UAPmix /. total Tpch.Scenarios.UA)));
    exit_ok
  in
  let doc = "normalized cost of all 22 TPC-H queries under UA/UAPenc/UAPmix" in
  Cmd.v (Cmd.info "scenarios" ~doc) Term.(const run $ obs_args)

(* --- run -------------------------------------------------------------- *)

let demo_tables env =
  (* built-in rows for the running-example schemas, keyed by relation *)
  let find name =
    List.find_opt
      (fun s -> s.Schema.name = name)
      env.Authz.Policy_dsl.schemas
  in
  match (find "Hosp", find "Ins") with
  | Some hosp, Some ins ->
      let s x = Value.Str x and n x = Value.Int x in
      let v = Value.date_of_string in
      [ ( "Hosp",
          Engine.Table.of_schema hosp
            [ [| s "alice"; v "1980-01-01"; s "stroke"; s "tpa" |];
              [| s "bob"; v "1975-05-12"; s "stroke"; s "surgery" |];
              [| s "carol"; v "1990-09-30"; s "flu"; s "rest" |];
              [| s "dave"; v "1968-03-22"; s "stroke"; s "tpa" |] ] );
        ( "Ins",
          Engine.Table.of_schema ins
            [ [| s "alice"; n 120 |]; [| s "bob"; n 300 |];
              [| s "carol"; n 80 |]; [| s "dave"; n 150 |] ] ) ]
  | _ -> []

let tables_arg =
  let doc = "Load a base relation from CSV: $(i,REL)=$(i,FILE). Repeatable.                Without any, built-in demo rows for the example policy are                used." in
  Arg.(value & opt_all (pair ~sep:'=' string file) []
       & info [ "t"; "table" ] ~doc)

let load_tables env table_specs =
  if table_specs = [] then demo_tables env
  else
    List.map
      (fun (rel, path) ->
        match
          List.find_opt
            (fun s -> s.Schema.name = rel)
            env.Authz.Policy_dsl.schemas
        with
        | Some schema -> (rel, Engine.Csv.load schema path)
        | None -> failwith ("unknown relation " ^ rel))
      table_specs

let find_user env =
  match
    List.find_opt
      (fun s -> s.Authz.Subject.role = Authz.Subject.User)
      env.Authz.Policy_dsl.subjects
  with
  | Some u -> u
  | None -> failwith "the policy declares no user"

(* --- fault-injection flags (run, chaos) ------------------------------- *)

let faults_arg =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:
             "Inject deterministic faults while executing. $(docv) is a \
              comma-separated list of $(i,SUBJECT):$(i,FAULT) entries with \
              $(i,FAULT) one of $(b,crash@K) (down from interaction step K \
              on), $(b,transient=P) (drop a message with probability P), \
              $(b,corrupt=P) (corrupt a payload in transit), $(b,slow=MS) \
              or $(b,slow=MS@P) (add MS ms simulated latency). Example: \
              $(b,X:crash@4,Y:transient=0.2).")

let fault_seed_arg =
  Arg.(value & opt int 1
       & info [ "fault-seed" ] ~docv:"N"
           ~doc:
             "Seed of the fault plan's PRNG; the same seed and spec \
              reproduce the exact same faults, retries and trace.")

let max_retries_arg =
  Arg.(value & opt int Distsim.Runtime.default_retry.Distsim.Runtime.max_retries
       & info [ "max-retries" ] ~docv:"N"
           ~doc:
             "Retries per network interaction before the peer is declared \
              dead and the query fails over to a re-planned assignment.")

let timeout_ms_arg =
  Arg.(value & opt int Distsim.Runtime.default_retry.Distsim.Runtime.timeout_ms
       & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Per-attempt timeout on the simulated clock.")

let retry_policy max_retries timeout_ms =
  { Distsim.Runtime.default_retry with
    Distsim.Runtime.max_retries;
    Distsim.Runtime.timeout_ms }

let run_cmd =
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the dispatch/release trace.")
  in
  (* [--trace] here predates the span tracer and prints the dispatch /
     release event log; span data is available through [--stats]. *)
  let run policy_path query table_specs trace stats faults_spec fault_seed
      max_retries timeout_ms =
    guard @@ fun () ->
    with_obs (stats, false) @@ fun () ->
    let env = load_policy policy_path in
    let plan = parse_query env query in
    let user = find_user env in
    let tables = load_tables env table_specs in
    let r =
      Planner.Optimizer.plan ~policy:env.Authz.Policy_dsl.policy
        ~subjects:env.Authz.Policy_dsl.subjects ~deliver_to:user plan
    in
    let faults =
      Option.map
        (fun spec ->
          Distsim.Faults.make ~seed:fault_seed (Distsim.Faults.parse spec))
        faults_spec
    in
    let replan =
      Distsim.Runtime.optimizer_replanner ~policy:env.Authz.Policy_dsl.policy
        ~subjects:env.Authz.Policy_dsl.subjects
        ~config:r.Planner.Optimizer.config ~deliver_to:user plan
    in
    let outcome =
      Distsim.Runtime.execute ~policy:env.Authz.Policy_dsl.policy
        ~pki:(Distsim.Pki.create ())
        ~keyring:(Mpq_crypto.Keyring.create ())
        ~user ~tables ~config:r.Planner.Optimizer.config ?faults
        ~retry:(retry_policy max_retries timeout_ms) ~replan
        ~extended:r.Planner.Optimizer.extended
        ~clusters:r.Planner.Optimizer.clusters ()
    in
    if trace then begin
      print_endline "--- trace ---";
      List.iter
        (fun e -> Format.printf "  %a@." Distsim.Runtime.pp_event e)
        outcome.Distsim.Runtime.trace
    end;
    match outcome.Distsim.Runtime.status with
    | Distsim.Runtime.Completed table ->
        print_string (Engine.Csv.to_string table);
        exit_ok
    | Distsim.Runtime.Degraded d ->
        Printf.eprintf "mpqcli: degraded: %s (dead: %s; %d ms simulated)\n"
          d.Distsim.Runtime.reason
          (String.concat ", "
             (List.map Authz.Subject.name d.Distsim.Runtime.dead))
          outcome.Distsim.Runtime.clock_ms;
        exit_degraded
  in
  let doc = "execute a query end-to-end through the distributed simulator" in
  Cmd.v (Cmd.info "run" ~doc ~man:exit_status_man)
    Term.(
      const run $ policy_arg $ query_arg $ tables_arg $ trace_arg $ stats_arg
      $ faults_arg $ fault_seed_arg $ max_retries_arg $ timeout_ms_arg)

(* --- chaos ------------------------------------------------------------ *)

let chaos_cmd =
  let seeds_arg =
    Arg.(value & opt int 10
         & info [ "seeds" ] ~docv:"N" ~doc:"Fault seeds to sweep (1..N).")
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"Print the trace of unsafe runs.")
  in
  (* Without --faults: crash a provider the baseline plan actually uses
     (forcing failover re-planning) and make every provider's links
     flaky. *)
  let default_spec env (r : Planner.Optimizer.result) =
    let providers =
      List.filter
        (fun s -> s.Authz.Subject.role = Authz.Subject.Provider)
        env.Authz.Policy_dsl.subjects
    in
    let assigned =
      Authz.Imap.fold
        (fun _ s acc -> Authz.Subject.Set.add s acc)
        r.Planner.Optimizer.extended.Authz.Extend.assignment
        Authz.Subject.Set.empty
    in
    let victim =
      match
        List.find_opt (fun s -> Authz.Subject.Set.mem s assigned) providers
      with
      | Some p -> Some p
      | None -> ( match providers with p :: _ -> Some p | [] -> None)
    in
    match victim with
    | None ->
        List.filter_map
          (fun s ->
            if s.Authz.Subject.role = Authz.Subject.User then None
            else Some (Authz.Subject.name s, Distsim.Faults.Transient 0.2))
          env.Authz.Policy_dsl.subjects
    | Some v ->
        (Authz.Subject.name v, Distsim.Faults.Crash_at 4)
        :: List.map
             (fun s -> (Authz.Subject.name s, Distsim.Faults.Transient 0.15))
             providers
  in
  let run policy_path query table_specs faults_spec seeds max_retries
      timeout_ms verbose obs =
    guard @@ fun () ->
    with_obs obs @@ fun () ->
    let env = load_policy policy_path in
    let plan = parse_query env query in
    let user = find_user env in
    let tables = load_tables env table_specs in
    let r =
      Planner.Optimizer.plan ~policy:env.Authz.Policy_dsl.policy
        ~subjects:env.Authz.Policy_dsl.subjects ~deliver_to:user plan
    in
    let spec =
      match faults_spec with
      | Some s -> Distsim.Faults.parse s
      | None -> default_spec env r
    in
    let retry = retry_policy max_retries timeout_ms in
    let replan =
      Distsim.Runtime.optimizer_replanner ~policy:env.Authz.Policy_dsl.policy
        ~subjects:env.Authz.Policy_dsl.subjects
        ~config:r.Planner.Optimizer.config ~deliver_to:user plan
    in
    let execute ?faults () =
      Distsim.Runtime.execute ~policy:env.Authz.Policy_dsl.policy
        ~pki:(Distsim.Pki.create ())
        ~keyring:(Mpq_crypto.Keyring.create ())
        ~user ~tables ~config:r.Planner.Optimizer.config ?faults ~retry
        ~replan ~extended:r.Planner.Optimizer.extended
        ~clusters:r.Planner.Optimizer.clusters ()
    in
    let baseline = Distsim.Runtime.result (execute ()) in
    Printf.printf "chaos sweep: %d seeds, faults %s\n" seeds
      (Distsim.Faults.render spec);
    let ok = ref 0 and degraded = ref 0 and unsafe = ref 0 in
    for seed = 1 to seeds do
      let faults = Distsim.Faults.make ~seed spec in
      let count trace p = List.length (List.filter p trace) in
      match execute ~faults () with
      | outcome -> (
          let trace = outcome.Distsim.Runtime.trace in
          let retries =
            count trace
              (function Distsim.Runtime.Retry _ -> true | _ -> false)
          and failovers =
            count trace
              (function
                | Distsim.Runtime.Failover_replanned _ -> true | _ -> false)
          in
          let stats =
            Printf.sprintf "%d retries, %d failovers, %d ms simulated"
              retries failovers outcome.Distsim.Runtime.clock_ms
          in
          match outcome.Distsim.Runtime.status with
          | Distsim.Runtime.Completed table
            when Engine.Table.equal_bag table baseline ->
              incr ok;
              Printf.printf "  seed %-3d ok        (%s)\n" seed stats
          | Distsim.Runtime.Completed _ ->
              incr unsafe;
              Printf.printf "  seed %-3d WRONG RESULT (%s)\n" seed stats;
              if verbose then
                List.iter
                  (fun e ->
                    Format.printf "    %a@." Distsim.Runtime.pp_event e)
                  trace
          | Distsim.Runtime.Degraded d ->
              incr degraded;
              Printf.printf "  seed %-3d degraded  (%s; %s)\n" seed
                d.Distsim.Runtime.reason stats)
      | exception Distsim.Runtime.Distributed_violation msg ->
          (* transport faults must never surface as authorization
             violations: if one does, the recovery path is broken *)
          incr unsafe;
          Printf.printf "  seed %-3d VIOLATION: %s\n" seed msg
    done;
    Printf.printf "summary: %d ok, %d degraded, %d unsafe\n" !ok !degraded
      !unsafe;
    if !unsafe > 0 then exit_verification else exit_ok
  in
  let doc =
    "sweep fault seeds and check every run ends safe (fault-free result \
     or verified degraded abort)"
  in
  let man =
    [ `S Manpage.s_description;
      `P "Plans the query once, executes it fault-free for a baseline, \
          then re-executes under the fault spec for every seed in \
          1..$(b,--seeds). A run is $(i,safe) when it either completes \
          with the baseline result (possibly after retries and verified \
          failover re-planning) or aborts with a structured degraded \
          outcome; a wrong result or an authorization violation is \
          $(i,unsafe) and fails the sweep.";
      `P "Without $(b,--faults), a default profile crashes the first \
          provider at step 4 and makes every provider's links drop 15% \
          of messages." ]
    @ exit_status_man
  in
  Cmd.v (Cmd.info "chaos" ~doc ~man)
    Term.(
      const run $ policy_arg $ query_arg $ tables_arg $ faults_arg
      $ seeds_arg $ max_retries_arg $ timeout_ms_arg $ verbose_arg
      $ obs_args)

(* --- check ---------------------------------------------------------- *)

let check_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the diagnostics as a JSON report.")
  in
  let tpch_arg =
    Arg.(value & opt (some int) None
         & info [ "tpch" ]
             ~doc:"Verify a TPC-H query (1-22) under an authorization \
                   scenario instead of $(b,-q); 0 verifies all 22.")
  in
  let scenario_arg =
    Arg.(value & opt (some (enum
            [ ("UA", Tpch.Scenarios.UA); ("UAPenc", Tpch.Scenarios.UAPenc);
              ("UAPmix", Tpch.Scenarios.UAPmix) ])) None
         & info [ "s"; "scenario" ]
             ~doc:"TPC-H authorization scenario (default: all three).")
  in
  let run policy_path query tpch scenario json obs =
    guard @@ fun () ->
    with_obs obs @@ fun () ->
    let targets =
      match (query, tpch) with
      | Some q, None ->
          let env = load_policy policy_path in
          let plan = parse_query env q in
          let user =
            List.find_opt
              (fun s -> s.Authz.Subject.role = Authz.Subject.User)
              env.Authz.Policy_dsl.subjects
          in
          [ ( "query",
              fun () ->
                let r =
                  Planner.Optimizer.plan ~policy:env.Authz.Policy_dsl.policy
                    ~subjects:env.Authz.Policy_dsl.subjects ?deliver_to:user
                    plan
                in
                (env.Authz.Policy_dsl.policy, r) ) ]
      | None, Some n ->
          let numbers =
            if n = 0 then List.map (fun (q, _, _) -> q) Tpch.Tpch_queries.all
            else [ n ]
          in
          let scenarios =
            match scenario with Some s -> [ s ] | None -> Tpch.Scenarios.all
          in
          List.concat_map
            (fun q ->
              List.map
                (fun sc ->
                  ( Printf.sprintf "tpch q%d %s" q (Tpch.Scenarios.name sc),
                    fun () ->
                      ( Tpch.Scenarios.policy sc,
                        Tpch.Scenarios.optimize ~scenario:sc
                          (Tpch.Tpch_queries.query q) ) ))
                scenarios)
            numbers
      | Some _, Some _ -> failwith "use either -q or --tpch, not both"
      | None, None -> failwith "nothing to check: pass -q QUERY or --tpch N"
    in
    let reports =
      List.map
        (fun (label, produce) ->
          (* a plan the self-check gate rejects reports the
             diagnostics it was rejected with; a clean one is verified
             again here for its warnings *)
          let diags =
            match produce () with
            | policy, (r : Planner.Optimizer.result) ->
                Verify.Verifier.run
                  { Verify.Verifier.policy;
                    config = r.Planner.Optimizer.config;
                    extended = r.Planner.Optimizer.extended;
                    clusters = r.Planner.Optimizer.clusters;
                    requests = r.Planner.Optimizer.requests }
            | exception Planner.Optimizer.Verification_failed diags -> diags
          in
          (label, diags))
        targets
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              (List.map
                 (fun (label, diags) ->
                   (label, Verify.Diag.report_json diags))
                 reports)))
    else
      List.iter
        (fun (label, diags) ->
          Printf.printf "--- %s ---\n%s" label (Verify.Diag.render diags))
        reports;
    if List.exists (fun (_, d) -> Verify.Diag.has_errors d) reports then
      exit_verification
    else exit_ok
  in
  let doc =
    "statically verify a plan: profiles, authorizations, minimality, \
     keys, schemes, dispatch"
  in
  let man =
    [ `S Manpage.s_description;
      `P "Plans the query, then re-derives every invariant of the \
          authorization model with the independent static verifier and \
          prints the findings as $(b,MPQ)$(i,NNN) diagnostics: profile \
          propagation (MPQ001-003), authorized assignees (MPQ010-012), \
          encryption minimality (MPQ020), key distribution (MPQ030-033), \
          scheme sufficiency (MPQ040-041) and dispatch well-formedness \
          (MPQ050-055).";
      `P "Exits with status 2 when any Error-severity diagnostic is \
          reported; warnings alone keep the exit status at 0." ]
    @ exit_status_man
  in
  Cmd.v (Cmd.info "check" ~doc ~man)
    Term.(const run $ policy_arg
          $ Arg.(value & opt (some string) None
                 & info [ "q"; "query" ]
                     ~doc:"SQL query to plan and verify.")
          $ tpch_arg $ scenario_arg $ json_arg $ obs_args)

(* --- serve ----------------------------------------------------------- *)

let serve_cmd =
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Plan and execute the distinct queries of a round on \
                   $(docv) domains (default 1: fully sequential). Responses \
                   are byte-identical at any value.")
  in
  let file_arg =
    Arg.(value & opt (some file) None
         & info [ "f"; "file" ] ~docv:"FILE"
             ~doc:"Read queries from $(docv) instead of standard input \
                   (batch mode: the whole request stream is served and the \
                   process exits).")
  in
  let cache_arg =
    Arg.(value & opt int 128
         & info [ "cache" ] ~docv:"N"
             ~doc:"Plan-cache capacity: at most $(docv) verified plans are \
                   retained, least-recently-used first out.")
  in
  let batch_arg =
    Arg.(value & opt int 16
         & info [ "batch" ] ~docv:"N"
             ~doc:"Admission bound: queued queries are served in rounds of \
                   at most $(docv); larger backlogs wait (backpressure).")
  in
  let listen_arg =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Serve over a socket instead of standard input: a port \
                   number listens on the IPv4 loopback ($(b,0) picks a free \
                   port, printed to standard error), anything containing \
                   $(b,/) is a Unix-domain socket path. Many concurrent \
                   sessions share one plan cache; responses use the same \
                   line protocol as stdin mode.")
  in
  let backlog_arg =
    Arg.(value & opt int 64
         & info [ "backlog" ] ~docv:"N"
             ~doc:"Socket mode: global admission bound. A request arriving \
                   when $(docv) requests are already queued is refused with \
                   a structured $(b,-- [N] shed:) line — never silently \
                   dropped.")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"T"
             ~doc:"Socket mode: per-request budget in milliseconds, counted \
                   from the moment the request line is read. Checked at \
                   admission to the planner and again between the plan and \
                   exec phases; an expired request is answered \
                   $(b,-- [N] deadline exceeded:) and is never half-served.")
  in
  let tenants_arg =
    Arg.(value & opt_all (pair ~sep:'=' string file) []
         & info [ "tenant" ] ~docv:"ID=FILE"
             ~doc:"Register tenant $(b,ID) with the policy environment \
                   loaded from $(b,FILE) (repeatable). Each tenant plans \
                   under its own policy, subjects and recipient, and its \
                   cache keys embed the tenant id, so tenants can never \
                   observe each other's cached plans or sub-plan results. \
                   Requests target a tenant with the $(b,\\\\tenant use ID) \
                   directive; the unnamed environment is tenant \
                   $(b,default).")
  in
  let run policy_path table_specs file cache batch listen backlog deadline_ms
      tenants jobs obs =
    guard @@ fun () ->
    with_obs obs @@ fun () ->
    Par.with_pool ~name:"serve" jobs @@ fun pool ->
    let env = load_policy policy_path in
    let tables = load_tables env table_specs in
    let service =
      Serve.Service.create ?pool ~cache_capacity:cache ~max_batch:batch
        ~policy:env.Authz.Policy_dsl.policy
        ~subjects:env.Authz.Policy_dsl.subjects ~tables ()
    in
    List.iter
      (fun (id, path) ->
        if id = "" then failwith "--tenant: expected ID=FILE, got an empty ID";
        let tenv = load_policy (Some path) in
        Serve.Service.add_tenant service ~id
          ~policy:tenv.Authz.Policy_dsl.policy
          ~subjects:tenv.Authz.Policy_dsl.subjects ())
      tenants;
    (* SIGTERM/SIGINT leave through the same drain as end of input:
       answer what was read, flush, report *)
    let on_signal stop =
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> stop ())))
        [ Sys.sigint; Sys.sigterm ]
    in
    (match listen with
    | Some addr_spec ->
        let server =
          Serve.Server.create ~config:{ Serve.Server.backlog; deadline_ms }
            ~service
            (Serve.Server.addr_of_string addr_spec)
        in
        on_signal (fun () -> Serve.Server.stop server);
        Printf.eprintf "-- serving on %s (backlog %d%s)\n%!"
          (Serve.Server.addr_to_string (Serve.Server.bound_addr server))
          backlog
          (match deadline_ms with
          | Some t -> Printf.sprintf ", deadline %d ms" t
          | None -> "");
        Serve.Server.run server;
        prerr_endline (Serve.Server.render_stats (Serve.Server.stats server))
    | None ->
        let stop = Atomic.make false in
        on_signal (fun () ->
            prerr_endline "-- interrupted: draining admitted requests";
            Atomic.set stop true;
            (* a second signal kills the process as usual *)
            Sys.set_signal Sys.sigint Sys.Signal_default;
            Sys.set_signal Sys.sigterm Sys.Signal_default);
        let fd =
          match file with
          | Some p -> Unix.openfile p [ Unix.O_RDONLY ] 0
          | None -> Unix.stdin
        in
        Serve.Server.serve_channel ~stop ~service fd stdout);
    prerr_endline (Serve.Service.render_stats (Serve.Service.stats service));
    exit_ok
  in
  let doc = "serve a stream of queries through the verified plan cache" in
  let man =
    [ `S Manpage.s_description;
      `P "Reads one request per line, from standard input, from \
          $(b,--file), or from each session of a $(b,--listen) socket, and \
          answers every request line with exactly one reply, in line \
          order: a $(b,-- [LINE] hit|miss) status comment with the planning \
          and execution latency followed by the result as CSV, or one \
          structured $(b,-- [LINE] tag:) line ($(b,rejected), \
          $(b,parse error), $(b,shed), $(b,deadline exceeded), or a \
          directive's result). Optimized plans are cached after passing \
          the static verifier once, keyed by (query structure, policy, \
          configuration); a repeated query skips planning $(i,and) \
          re-verification. Queries the policy rejects report \
          $(b,rejected), and the verdict is cached too.";
      `P "Blank lines and $(b,#) comments are skipped. Directives: \
          $(b,\\\\stats) reports cache statistics, $(b,\\\\tenant) names \
          the current tenant, $(b,\\\\tenant list) lists them and \
          $(b,\\\\tenant use ID) switches the following requests to a \
          tenant registered with $(b,--tenant). Standard input and \
          $(b,--file) are the operator's channel and take two more, which \
          a socket session is refused: $(b,\\\\policy FILE) installs a new \
          policy for the current tenant (every cached plan keyed under its \
          old policy becomes unreachable at once; base relations are fixed \
          at startup, so the policy must keep the relations it queries), \
          and $(b,\\\\invalidate) drops the caches. A directive takes \
          effect after every request before it is answered.";
      `P "Channel contract: standard output carries exactly the replies to \
          request lines, in line order. Standard error carries operational \
          notices only: the listening banner, interruption notes and the \
          final statistics. SIGINT and SIGTERM exit through the same drain \
          as end of input: requests already read are answered, then the \
          statistics are reported.";
      `P "With $(b,--jobs N) the distinct queries of each \
          admission-bounded round ($(b,--batch)) are planned and executed \
          on N domains, each query on one domain; responses, response \
          order and cache evolution are identical to sequential serving, \
          byte for byte.";
      `P "With $(b,--listen ADDR) many concurrent sessions share the \
          service, with overload behaviour engineered in: a bounded global \
          backlog ($(b,--backlog)) that refuses excess requests with \
          $(b,shed) lines, per-request deadlines ($(b,--deadline-ms)) \
          checked at admission and between the plan and exec phases, \
          per-session isolation (a malformed or stalled connection cannot \
          corrupt another session's replies or the shared cache), and \
          graceful shutdown on SIGTERM/SIGINT (drain, flush, report)." ]
    @ exit_status_man
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ policy_arg $ tables_arg $ file_arg $ cache_arg $ batch_arg
      $ listen_arg $ backlog_arg $ deadline_arg $ tenants_arg $ jobs_arg
      $ obs_args)

(* --- audit ----------------------------------------------------------- *)

let audit_cmd =
  let attr_arg =
    Arg.(value & opt (some string) None
         & info [ "a"; "attr" ] ~docv:"ATTR"
             ~doc:"Restrict the report to attribute $(docv) (\"who could \
                   ever see $(docv)?\").")
  in
  let subject_arg =
    Arg.(value & opt (some string) None
         & info [ "s"; "subject" ] ~docv:"SUBJECT"
             ~doc:"Restrict the report to subject $(docv) (\"what could \
                   $(docv) ever see?\").")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the findings as JSON.")
  in
  let run policy_path attr subject json obs =
    guard @@ fun () ->
    with_obs obs @@ fun () ->
    let env = load_policy policy_path in
    let findings =
      Analysis.Audit.run ~policy:env.Authz.Policy_dsl.policy
        ~subjects:env.Authz.Policy_dsl.subjects ?attr ?subject ()
    in
    if json then
      print_endline (Json.to_string (Analysis.Audit.to_json findings))
    else print_string (Analysis.Audit.render findings);
    exit_ok
  in
  let doc =
    "audit a policy: who could ever see which attribute, at what level, \
     via which relation or join path"
  in
  let man =
    [ `S Manpage.s_description;
      `P "Answers the reachability question a policy author actually has \
          — not \"what does rule 7 say\" but \"who could ever observe \
          attribute X, in plaintext or as ciphertext, and along which \
          path?\". Each finding cites its path: a relation the subject's \
          (explicit, $(b,any), or implicit owner/host) rule covers, or a \
          type-compatible cross-relation join the subject could lawfully \
          execute under Def. 4.1 — an equi-join over deterministic \
          ciphertext still reveals the compared column to its executor.";
      `P "One line per finding, sorted and deduplicated: \
          $(i,ATTR): $(i,SUBJECT) $(i,LEVEL) via relation $(i,REL), or \
          via join $(i,REL.A) = $(i,REL'.B). The output is stable across \
          runs, so it can be diffed between policy versions." ]
    @ exit_status_man
  in
  Cmd.v (Cmd.info "audit" ~doc ~man)
    Term.(const run $ policy_arg $ attr_arg $ subject_arg $ json_arg
          $ obs_args)

(* --- example -------------------------------------------------------- *)

let example_cmd =
  let run () =
    print_string Authz.Policy_dsl.example;
    0
  in
  let doc = "print the running example's policy file" in
  Cmd.v (Cmd.info "example" ~doc) Term.(const run $ const ())

let () =
  let doc = "authorization-aware planning for multi-provider queries" in
  let info = Cmd.info "mpqcli" ~version:"1.0.0" ~doc ~man:exit_status_man in
  let status =
    Cmd.eval'
      (Cmd.group info
         [ plan_cmd; optimize_cmd; run_cmd; serve_cmd; chaos_cmd; check_cmd;
           audit_cmd; tpch_cmd; scenarios_cmd; example_cmd ])
  in
  (* cmdliner reserves 124 for CLI parse errors; fold it into our
     documented "1 = usage/parse error" convention *)
  exit (if status = Cmd.Exit.cli_error then exit_input_error else status)
