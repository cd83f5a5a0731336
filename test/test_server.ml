(* The socket server's overload contract, asserted over real sockets:

   1. framing — every request line ends in exactly one framed response
      (status comment + CSV, or a single structured refusal line);
      accepted requests answer byte-identically to a direct
      Service.submit oracle;
   2. isolation — a session spraying garbage or vanishing mid-batch
      leaves a well-behaved neighbour's (normalized) response stream
      identical to a run where it had the server to itself, and leaves
      the shared cache statistics untouched by refused requests;
   3. overload — a backlog bound refuses the excess with structured
      shed lines (none admitted when the bound is zero), the session
      bound refuses the 65th connection with one shed line, deadlines
      are refused structurally at admission and between plan and exec;
   4. shutdown — stop() drains admitted and delayed requests, flushes,
      and ends every session with EOF, not a hang;
   5. chaos — a 25-seed Netfaults sweep (slow, stall, disconnect,
      garbage) never produces an unstructured outcome: every reply
      parses, every table matches the oracle byte for byte, every
      stream ends in EOF within the timeout. *)

open Authz

let demo_tables (env : Policy_dsl.t) =
  let find name =
    List.find (fun s -> s.Relalg.Schema.name = name) env.Policy_dsl.schemas
  in
  let s x = Relalg.Value.Str x and n x = Relalg.Value.Int x in
  let v = Relalg.Value.date_of_string in
  [ ( "Hosp",
      Engine.Table.of_schema (find "Hosp")
        [ [| s "alice"; v "1980-01-01"; s "stroke"; s "tpa" |];
          [| s "bob"; v "1975-05-12"; s "stroke"; s "surgery" |];
          [| s "carol"; v "1990-09-30"; s "flu"; s "rest" |];
          [| s "dave"; v "1968-03-22"; s "stroke"; s "tpa" |] ] );
    ( "Ins",
      Engine.Table.of_schema (find "Ins")
        [ [| s "alice"; n 120 |]; [| s "bob"; n 300 |];
          [| s "carol"; n 80 |]; [| s "dave"; n 150 |] ] ) ]

let example_service () =
  let env = Policy_dsl.parse Policy_dsl.example in
  Serve.Service.create ~policy:env.Policy_dsl.policy
    ~subjects:env.Policy_dsl.subjects ~tables:(demo_tables env) ()

let queries =
  [| "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by \
      T having P>100";
     "select S, D from Hosp where T='tpa'";
     "select C, P from Ins where P>100";
     "select D, count(T) from Hosp group by D";
     "select T, P from Hosp join Ins on S=C where P>100";
     "select avg(P) from Ins" |]

(* the direct-call oracle: table bytes are a pure function of (query,
   environment, seed) — independent of cache history and of how the
   query reached the service — so a fresh service is a valid oracle
   for any accepted request *)
let oracle_csv () =
  let service = example_service () in
  Array.map
    (fun q ->
      match (Serve.Service.submit_sql service q).Serve.Service.outcome with
      | Serve.Service.Table t -> Engine.Csv.to_string t
      | Serve.Service.Rejected m -> Alcotest.failf "oracle rejected: %s" m
      | Serve.Service.Expired m -> Alcotest.failf "oracle expired: %s" m)
    queries

let with_server ?config f =
  let service = example_service () in
  let server = Serve.Server.create ?config ~service (Serve.Server.Tcp 0) in
  let addr = Serve.Server.bound_addr server in
  let d = Domain.spawn (fun () -> Serve.Server.run server) in
  let finally () =
    Serve.Server.stop server;
    Domain.join d
  in
  Fun.protect ~finally (fun () -> f server service addr)

(* timing-dependent tokens scrubbed; hit|miss folded together (cache
   history legitimately differs between a shared and a private run) *)
let normalize_reply (r : Serve.Client.reply) =
  let tag =
    match r.Serve.Client.tag with "hit" | "miss" -> "served" | t -> t
  in
  Printf.sprintf "[%d] %s%s" r.Serve.Client.line tag
    (match Serve.Client.table_csv r with
    | Some csv -> ":\n" ^ csv
    | None -> "")

let structured_tags =
  [ "served"; "rejected"; "shed"; "deadline exceeded"; "stats" ]

let check_structured (r : Serve.Client.reply) =
  let tag =
    match r.Serve.Client.tag with "hit" | "miss" -> "served" | t -> t
  in
  if
    not
      (List.mem tag structured_tags
      || String.starts_with ~prefix:"parse error" tag)
  then Alcotest.failf "unstructured reply tag %S" r.Serve.Client.tag

(* --- framing ---------------------------------------------------------- *)

let test_two_sessions () =
  let oracle = oracle_csv () in
  with_server @@ fun server _service addr ->
  let a = Serve.Client.connect addr and b = Serve.Client.connect addr in
  Serve.Client.send a queries.(0);
  Serve.Client.send b queries.(1);
  Serve.Client.send a queries.(2);
  Serve.Client.send b queries.(0);
  Serve.Client.shutdown_send a;
  Serve.Client.shutdown_send b;
  let ra = Serve.Client.recv_all a and rb = Serve.Client.recv_all b in
  Serve.Client.close a;
  Serve.Client.close b;
  Alcotest.(check int) "a got both replies" 2 (List.length ra);
  Alcotest.(check int) "b got both replies" 2 (List.length rb);
  let check_table qi (r : Serve.Client.reply) =
    match Serve.Client.table_csv r with
    | Some csv ->
        Alcotest.(check string)
          (Printf.sprintf "oracle bytes for query %d" qi)
          oracle.(qi) csv
    | None -> Alcotest.failf "expected a table, got %s" r.Serve.Client.tag
  in
  (match List.sort (fun (x : Serve.Client.reply) y -> compare x.line y.line) ra with
  | [ r1; r2 ] ->
      check_table 0 r1;
      check_table 2 r2
  | _ -> assert false);
  (match List.sort (fun (x : Serve.Client.reply) y -> compare x.line y.line) rb with
  | [ r1; r2 ] ->
      check_table 1 r1;
      check_table 0 r2
  | _ -> assert false);
  let st = Serve.Server.stats server in
  Alcotest.(check int) "two sessions" 2 st.Serve.Server.sessions;
  Alcotest.(check int) "four accepted" 4 st.Serve.Server.accepted;
  Alcotest.(check int) "four tables" 4 st.Serve.Server.tables

let test_stats_directive () =
  with_server @@ fun _server _service addr ->
  let c = Serve.Client.connect addr in
  Serve.Client.send c "\\stats";
  Serve.Client.send c "\\policy /tmp/nope.mpq";
  Serve.Client.shutdown_send c;
  let rs = Serve.Client.recv_all c in
  Serve.Client.close c;
  match rs with
  | [ stats; refused ] ->
      Alcotest.(check string) "stats answered" "stats" stats.Serve.Client.tag;
      Alcotest.(check string)
        "mutating directive refused structurally" "rejected"
        refused.Serve.Client.tag;
      Alcotest.(check string) "refusal names what a socket honours"
        "directive \\policy is not available over a socket \
         (sessions are isolated; only \\stats and \\tenant)"
        refused.Serve.Client.info
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

(* --- isolation -------------------------------------------------------- *)

let victim_run addr =
  let c = Serve.Client.connect addr in
  Array.iteri (fun i _ -> Serve.Client.send c queries.(i)) queries;
  Serve.Client.shutdown_send c;
  let rs = Serve.Client.recv_all c in
  Serve.Client.close c;
  List.map normalize_reply rs

let test_session_isolation () =
  (* the victim alone on a fresh server *)
  let solo = with_server (fun _ _ addr -> victim_run addr) in
  (* the victim next to a garbage-spraying session and one that
     vanishes owing responses *)
  let shared =
    with_server @@ fun _server _service addr ->
    let garbler = Serve.Client.connect addr in
    let vanisher = Serve.Client.connect addr in
    Serve.Client.send garbler "\x01\x02 not ( sql | at ; all \x03";
    Serve.Client.send vanisher queries.(0);
    Serve.Client.send vanisher queries.(1);
    Serve.Client.close vanisher;
    let rs = victim_run addr in
    Serve.Client.send garbler ")))) still not sql ((((";
    Serve.Client.shutdown_send garbler;
    let gr = Serve.Client.recv_all garbler in
    Serve.Client.close garbler;
    List.iter check_structured gr;
    Alcotest.(check int) "garbler got structured refusals" 2 (List.length gr);
    List.iter
      (fun (r : Serve.Client.reply) ->
        Alcotest.(check bool)
          (Printf.sprintf "refusal tag %S" r.Serve.Client.tag)
          true
          (String.starts_with ~prefix:"parse error" r.Serve.Client.tag))
      gr;
    rs
  in
  Alcotest.(check (list string))
    "victim stream identical next to faulty sessions" solo shared

(* --- overload --------------------------------------------------------- *)

let test_shed_structured () =
  with_server
    ~config:{ Serve.Server.default_config with Serve.Server.backlog = 0 }
  @@ fun server service addr ->
  let c = Serve.Client.connect addr in
  for i = 0 to 4 do
    Serve.Client.send c queries.(i mod Array.length queries)
  done;
  Serve.Client.shutdown_send c;
  let rs = Serve.Client.recv_all c in
  Serve.Client.close c;
  Alcotest.(check int) "every request answered" 5 (List.length rs);
  List.iter
    (fun (r : Serve.Client.reply) ->
      Alcotest.(check string) "structured shed" "shed" r.Serve.Client.tag;
      Alcotest.(check (list string)) "single line, no body" []
        r.Serve.Client.body)
    rs;
  let st = Serve.Server.stats server in
  Alcotest.(check int) "all shed" 5 st.Serve.Server.shed;
  Alcotest.(check int) "none accepted" 0 st.Serve.Server.accepted;
  (* a refused request never touches the service or its cache *)
  let ss = Serve.Service.stats service in
  Alcotest.(check int) "service untouched" 0 ss.Serve.Service.queries;
  Alcotest.(check int) "no hits" 0 ss.Serve.Service.hits;
  Alcotest.(check int) "no misses" 0 ss.Serve.Service.misses

(* The 65th concurrent connection is refused with one structured line
   and closed; the 64 live sessions are still served. *)
let test_session_limit () =
  let oracle = oracle_csv () in
  with_server @@ fun server _service addr ->
  let live = List.init 64 (fun _ -> Serve.Client.connect addr) in
  let extra = Serve.Client.connect addr in
  (match Serve.Client.recv_all extra with
  | [ r ] ->
      Alcotest.(check (pair int string)) "refusal frame" (0, "shed")
        (r.Serve.Client.line, r.Serve.Client.tag);
      Alcotest.(check string) "refusal text" "session limit (64 active)"
        r.Serve.Client.info
  | rs -> Alcotest.failf "expected one refusal line, got %d" (List.length rs));
  Serve.Client.close extra;
  List.iteri
    (fun i c -> Serve.Client.send c queries.(i mod Array.length queries))
    live;
  List.iteri
    (fun i c ->
      Serve.Client.shutdown_send c;
      (match Serve.Client.recv_all c with
      | [ r ] ->
          Alcotest.(check (option string))
            (Printf.sprintf "session %d answered" i)
            (Some oracle.(i mod Array.length queries))
            (Serve.Client.table_csv r)
      | rs ->
          Alcotest.failf "session %d: expected one reply, got %d" i
            (List.length rs));
      Serve.Client.close c)
    live;
  let st = Serve.Server.stats server in
  Alcotest.(check int) "one session refused" 1 st.Serve.Server.sessions_refused;
  Alcotest.(check int) "64 sessions accepted" 64 st.Serve.Server.sessions;
  Alcotest.(check int) "64 tables" 64 st.Serve.Server.tables

let test_deadline_at_admission () =
  with_server
    ~config:
      { Serve.Server.default_config with
        Serve.Server.deadline_ms = Some (-1) }
  @@ fun server service addr ->
  let c = Serve.Client.connect addr in
  for i = 0 to 3 do
    Serve.Client.send c queries.(i)
  done;
  Serve.Client.shutdown_send c;
  let rs = Serve.Client.recv_all c in
  Serve.Client.close c;
  Alcotest.(check int) "every request answered" 4 (List.length rs);
  List.iter
    (fun (r : Serve.Client.reply) ->
      Alcotest.(check string) "structured expiry" "deadline exceeded"
        r.Serve.Client.tag;
      Alcotest.(check bool) "names the checkpoint" true
        (r.Serve.Client.info = "at admission"))
    rs;
  let st = Serve.Server.stats server in
  Alcotest.(check int) "counted as expired" 4 st.Serve.Server.expired;
  (* the service saw them (and counted them) but its cache never moved *)
  let ss = Serve.Service.stats service in
  Alcotest.(check int) "service counted expiries" 4 ss.Serve.Service.expired;
  Alcotest.(check int) "no hits" 0 ss.Serve.Service.hits;
  Alcotest.(check int) "no misses" 0 ss.Serve.Service.misses;
  Alcotest.(check int) "no cache entries" 0
    (List.length (Serve.Service.cache_keys service))

(* between plan and exec: a fake clock on the service itself forces the
   second checkpoint deterministically — admission passes at t=0, the
   plan lands, then the clock jumps past the deadline *)
let test_deadline_between_plan_and_exec () =
  let env = Policy_dsl.parse Policy_dsl.example in
  let calls = ref 0 in
  let now () =
    incr calls;
    if !calls = 1 then 0.0 else 100.0
  in
  let service =
    Serve.Service.create ~now ~policy:env.Policy_dsl.policy
      ~subjects:env.Policy_dsl.subjects ~tables:(demo_tables env) ()
  in
  let q = Serve.Service.parse service queries.(0) in
  let r =
    Serve.Service.submit_request service
      (Serve.Service.request ~deadline:50.0 q)
  in
  (match r.Serve.Service.outcome with
  | Serve.Service.Expired why ->
      Alcotest.(check string) "names the checkpoint" "between plan and exec"
        why
  | Serve.Service.Table _ -> Alcotest.fail "expired request served"
  | Serve.Service.Rejected m -> Alcotest.failf "rejected instead: %s" m);
  Alcotest.(check bool) "the plan itself landed" true
    (r.Serve.Service.planned <> None);
  (* the planning work was not wasted: the entry is cached and a live
     resubmission hits *)
  let r2 = Serve.Service.submit service q in
  Alcotest.(check bool) "resubmission hits" true
    (r2.Serve.Service.status = Serve.Service.Hit)

(* --- graceful shutdown ------------------------------------------------ *)

let test_shutdown_drains () =
  (* every request is held 5 s by a slow fault; stop() must promote and
     answer them all rather than wait out the delays *)
  let config =
    { Serve.Server.default_config with
      Serve.Server.netfaults = Serve.Netfaults.parse "slow=5000" }
  in
  let t0 = Unix.gettimeofday () in
  let replies =
    with_server ~config @@ fun server _service addr ->
    let c = Serve.Client.connect addr in
    for i = 0 to 3 do
      Serve.Client.send c queries.(i)
    done;
    (* give the loop time to read the lines into the delayed queue *)
    Unix.sleepf 0.3;
    Serve.Server.stop server;
    let rs = Serve.Client.recv_all c in
    Serve.Client.close c;
    rs
  in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "all four answered at shutdown" 4
    (List.length replies);
  List.iter
    (fun (r : Serve.Client.reply) ->
      match Serve.Client.table_csv r with
      | Some _ -> ()
      | None -> Alcotest.failf "expected a table, got %s" r.Serve.Client.tag)
    replies;
  Alcotest.(check bool)
    (Printf.sprintf "drain promoted the delays (%.1f s)" wall)
    true (wall < 4.0)

(* --- netfaults determinism -------------------------------------------- *)

let schedule_trace ~seed spec n =
  let s = Serve.Netfaults.session ~seed spec n in
  let reqs =
    List.init 10 (fun _ ->
        let v = Serve.Netfaults.on_request s in
        (v.Serve.Netfaults.delay_ms, v.Serve.Netfaults.garbage))
  in
  ( Serve.Netfaults.active s,
    Serve.Netfaults.stall_after s,
    Serve.Netfaults.disconnect_after s,
    reqs,
    Serve.Netfaults.garble s "select x from y" )

let test_netfaults_deterministic () =
  let spec =
    Serve.Netfaults.parse "sessions=0.6,slow=30@0.3,garbage=0.2,stall@6"
  in
  for i = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "session %d schedule reproducible" i)
      true
      (schedule_trace ~seed:42 spec i = schedule_trace ~seed:42 spec i)
  done;
  (* the spec round-trips *)
  Alcotest.(check string) "render/parse round-trip"
    (Serve.Netfaults.render spec)
    (Serve.Netfaults.render
       (Serve.Netfaults.parse (Serve.Netfaults.render spec)));
  (* and different seeds move at least one session's schedule *)
  Alcotest.(check bool) "seed matters" true
    (List.init 8 (fun i -> schedule_trace ~seed:1 spec i)
    <> List.init 8 (fun i -> schedule_trace ~seed:2 spec i))

(* --- the chaos sweep -------------------------------------------------- *)

let chaos_spec = "sessions=0.7,slow=25@0.3,garbage=0.15,stall@6,disconnect@4"
let chaos_sessions = 3
let chaos_requests = 8

let run_chaos_seed ~oracle seed =
  let config =
    { Serve.Server.default_config with
      Serve.Server.netfaults = Serve.Netfaults.parse chaos_spec;
      fault_seed = seed }
  in
  with_server ~config @@ fun server _service addr ->
  (* sequential connects pin the accept order, hence each session's
     derived fault schedule *)
  let clients =
    List.init chaos_sessions (fun _ -> Serve.Client.connect ~timeout_s:30.0 addr)
  in
  let sent = Array.make chaos_sessions [] in
  for r = 0 to chaos_requests - 1 do
    List.iteri
      (fun i c ->
        let qi = (r + (i * 2)) mod Array.length queries in
        sent.(i) <- (r + 1, qi) :: sent.(i);
        try Serve.Client.send c queries.(qi)
        with Unix.Unix_error _ -> () (* server already cut this session *))
      clients
  done;
  List.iter
    (fun c ->
      try Serve.Client.shutdown_send c with Unix.Unix_error _ -> ())
    clients;
  let all_replies =
    List.mapi
      (fun i c ->
        (* recv_all must terminate with EOF — a hang (Timeout) or an
           unparseable line (Protocol_error) fails the sweep *)
        let rs =
          try Serve.Client.recv_all c with
          | Serve.Client.Timeout ->
              Alcotest.failf "seed %d: session %d hung" seed i
          | Serve.Client.Protocol_error m ->
              Alcotest.failf "seed %d: session %d unstructured: %s" seed i m
        in
        Serve.Client.close c;
        rs)
      clients
  in
  List.iteri
    (fun i rs ->
      List.iter
        (fun (r : Serve.Client.reply) ->
          check_structured r;
          match Serve.Client.table_csv r with
          | None -> ()
          | Some csv -> (
              (* a served table answers the original request of that
                 line byte-identically to the direct oracle (garbled
                 lines can only come back as parse errors) *)
              match List.assoc_opt r.Serve.Client.line sent.(i) with
              | Some qi ->
                  Alcotest.(check string)
                    (Printf.sprintf "seed %d session %d line %d oracle"
                       seed i r.Serve.Client.line)
                    oracle.(qi) csv
              | None ->
                  Alcotest.failf "seed %d: reply to a line never sent: %d"
                    seed r.Serve.Client.line))
        rs)
    all_replies;
  (Serve.Server.stats server, List.length (List.concat all_replies))

let test_chaos_sweep () =
  let oracle = oracle_csv () in
  let garbled = ref 0
  and stalled = ref 0
  and forced = ref 0
  and replies = ref 0 in
  for seed = 0 to 24 do
    let st, n = run_chaos_seed ~oracle seed in
    garbled := !garbled + st.Serve.Server.garbled;
    stalled := !stalled + st.Serve.Server.stalled;
    forced := !forced + st.Serve.Server.forced_disconnects;
    replies := !replies + n
  done;
  (* the sweep exercised every chaos mode and still answered *)
  Alcotest.(check bool) "garbage fired" true (!garbled > 0);
  Alcotest.(check bool) "stalls fired" true (!stalled > 0);
  Alcotest.(check bool) "disconnect cuts fired" true (!forced > 0);
  Alcotest.(check bool) "plenty of structured replies" true (!replies > 100)

let () =
  Alcotest.run "server"
    [ ( "framing",
        [ Alcotest.test_case "two concurrent sessions" `Quick
            test_two_sessions;
          Alcotest.test_case "stats + refused directives" `Quick
            test_stats_directive ] );
      ( "isolation",
        [ Alcotest.test_case "faulty neighbours leave no trace" `Quick
            test_session_isolation ] );
      ( "overload",
        [ Alcotest.test_case "backlog full sheds structurally" `Quick
            test_shed_structured;
          Alcotest.test_case "session limit refuses the 65th" `Quick
            test_session_limit;
          Alcotest.test_case "deadline refused at admission" `Quick
            test_deadline_at_admission;
          Alcotest.test_case "deadline between plan and exec" `Quick
            test_deadline_between_plan_and_exec ] );
      ( "shutdown",
        [ Alcotest.test_case "stop drains delayed requests" `Quick
            test_shutdown_drains ] );
      ( "netfaults",
        [ Alcotest.test_case "schedules are seed-deterministic" `Quick
            test_netfaults_deterministic;
          Alcotest.test_case "25-seed chaos sweep" `Slow test_chaos_sweep ] ) ]
