(* load_bench — closed-loop multi-client load against the socket
   server, over real sockets.

   One in-process {!Serve.Server} (TCP loopback, kernel-picked port,
   event loop on its own domain) serves N client domains. Each client
   is a closed loop: it sends a burst of requests, waits for every
   response of the burst, repeats — so offered load tracks service
   capacity and the latency distribution is honest (no coordinated
   omission from an open-loop injector). Requests cycle a small pool
   of SQL queries against the paper's running-example policy, so the
   plan cache warms quickly and the measured path is the serving
   layer itself: admission, dispatch, formatting, socket IO.

   The sweep crosses client counts with backlog bounds. Small
   backlogs under bursty concurrent clients force admission control:
   the refused requests come back as structured shed lines and are
   reported as a rate, not an error. Every request must end in
   exactly one structured response — a request with no reply
   (unanswered) fails the bench with exit 2.

     dune exec bench/load_bench.exe               # full sweep
     dune exec bench/load_bench.exe -- --quick    # CI smoke subset
     dune exec bench/load_bench.exe -- --clients 1,4 --backlogs 2,64

   The report is one JSON document (default [BENCH_load.json]): per
   sweep point p50/p95/p99 latency (ms), throughput (qps), shed rate
   and the server's own counters, plus [host_cores] for context. *)

open Relalg

let queries =
  [| "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by \
      T having P>100";
     "select S, D from Hosp where T='tpa'";
     "select C, P from Ins where P>100";
     "select D, count(T) from Hosp group by D";
     "select T, P from Hosp join Ins on S=C where P>100";
     "select avg(P) from Ins" |]

let demo_tables (env : Authz.Policy_dsl.t) =
  let find name =
    List.find_opt (fun s -> s.Schema.name = name) env.Authz.Policy_dsl.schemas
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
  | _ -> failwith "running example policy lacks Hosp/Ins"

type tally = {
  mutable served : int;
  mutable shed : int;
  mutable expired : int;
  mutable rejected : int;
  mutable parse_errors : int;
  mutable other : int;
  mutable unanswered : int;
  mutable lats : float list;  (* ms, one per answered request *)
}

let new_tally () =
  { served = 0; shed = 0; expired = 0; rejected = 0; parse_errors = 0;
    other = 0; unanswered = 0; lats = [] }

let client_worker ?(tenant = Serve.Tenancy.default_id) ~addr ~requests ~burst
    ~offset () =
  let t = new_tally () in
  let c = Serve.Client.connect ~timeout_s:60.0 addr in
  let sent = Hashtbl.create 16 in
  let n_sent = ref 0 in
  (* a non-default tenant costs one directive line up front, which
     shifts the server's line numbering for every data request *)
  let line_base =
    if tenant = Serve.Tenancy.default_id then 0
    else begin
      Serve.Client.send c ("\\tenant use " ^ tenant);
      (match Serve.Client.recv c with
      | Some r when r.Serve.Client.tag = "tenant" -> ()
      | _ -> failwith ("client could not switch to tenant " ^ tenant));
      1
    end
  in
  (try
     while !n_sent < requests do
       let b = min burst (requests - !n_sent) in
       for _ = 1 to b do
         let q = queries.((offset + !n_sent) mod Array.length queries) in
         incr n_sent;
         Hashtbl.replace sent (line_base + !n_sent) (Unix.gettimeofday ());
         Serve.Client.send c q
       done;
       for _ = 1 to b do
         match Serve.Client.recv c with
         | None -> raise Exit
         | Some r ->
             let t1 = Unix.gettimeofday () in
             (match Hashtbl.find_opt sent r.Serve.Client.line with
             | Some t0 ->
                 t.lats <- ((t1 -. t0) *. 1000.0) :: t.lats;
                 Hashtbl.remove sent r.Serve.Client.line
             | None -> ());
             let tag = r.Serve.Client.tag in
             if tag = "hit" || tag = "miss" then t.served <- t.served + 1
             else if tag = "shed" then t.shed <- t.shed + 1
             else if tag = "deadline exceeded" then t.expired <- t.expired + 1
             else if tag = "rejected" then t.rejected <- t.rejected + 1
             else if String.starts_with ~prefix:"parse error" tag then
               t.parse_errors <- t.parse_errors + 1
             else t.other <- t.other + 1
       done
     done
   with Exit | Serve.Client.Timeout -> ());
  Serve.Client.shutdown_send c;
  Serve.Client.close c;
  t.unanswered <- Hashtbl.length sent;
  t

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let () =
  let quick = ref false in
  let out = ref "BENCH_load.json" in
  let policy = ref "examples/policies/running_example.mpq" in
  let clients = ref [ 1; 2; 4; 8 ] in
  let backlogs = ref [ 2; 64 ] in
  let requests = ref 40 in
  let burst = ref 4 in
  let deadline_ms = ref None in
  let jobs = ref 1 in
  let ints s = List.map int_of_string (String.split_on_char ',' s) in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "-o" :: file :: rest ->
        out := file;
        parse rest
    | "--policy" :: p :: rest ->
        policy := p;
        parse rest
    | "--clients" :: l :: rest ->
        clients := ints l;
        parse rest
    | "--backlogs" :: l :: rest ->
        backlogs := ints l;
        parse rest
    | "--requests" :: n :: rest ->
        requests := int_of_string n;
        parse rest
    | "--burst" :: n :: rest ->
        burst := int_of_string n;
        parse rest
    | "--deadline-ms" :: n :: rest ->
        deadline_ms := Some (int_of_string n);
        parse rest
    | "--jobs" :: n :: rest ->
        jobs := int_of_string n;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "load_bench: unknown argument %s\n\
           usage: load_bench [--quick] [--clients L] [--backlogs L] \
           [--requests N] [--burst N] [--deadline-ms T] [--jobs N] \
           [--policy FILE] [-o FILE]\n"
          arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !quick then begin
    clients := [ 1; 4 ];
    backlogs := [ 2; 16 ];
    requests := 12
  end;
  let env = Authz.Policy_dsl.load !policy in
  let tables = demo_tables env in
  let failures = ref 0 in
  Par.with_pool ~name:"load" !jobs @@ fun pool ->
  let combo n_clients backlog =
    let service =
      Serve.Service.create ?pool ~policy:env.Authz.Policy_dsl.policy
        ~subjects:env.Authz.Policy_dsl.subjects ~tables ()
    in
    let config =
      { Serve.Server.backlog; deadline_ms = !deadline_ms }
    in
    let server =
      Serve.Server.create ~config ~service (Serve.Server.Tcp 0)
    in
    let addr = Serve.Server.bound_addr server in
    let srv = Domain.spawn (fun () -> Serve.Server.run server) in
    let t0 = Unix.gettimeofday () in
    let workers =
      List.init n_clients (fun i ->
          Domain.spawn (fun () ->
              client_worker ~addr ~requests:!requests ~burst:!burst
                ~offset:(i * 3) ()))
    in
    let tallies = List.map Domain.join workers in
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    Serve.Server.stop server;
    Domain.join srv;
    let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
    let served = sum (fun t -> t.served)
    and shed = sum (fun t -> t.shed)
    and expired = sum (fun t -> t.expired)
    and rejected = sum (fun t -> t.rejected)
    and parse_errors = sum (fun t -> t.parse_errors)
    and other = sum (fun t -> t.other)
    and unanswered = sum (fun t -> t.unanswered) in
    let answered = served + shed + expired + rejected + parse_errors + other in
    let lats =
      Array.of_list (List.concat_map (fun t -> t.lats) tallies)
    in
    Array.sort compare lats;
    let total = n_clients * !requests in
    let qps = float_of_int answered /. (wall_ms /. 1000.0) in
    let shed_rate =
      if total = 0 then 0.0 else float_of_int shed /. float_of_int total
    in
    if unanswered > 0 then begin
      incr failures;
      Printf.eprintf
        "FAILURE: %d requests got no structured response (clients %d, \
         backlog %d)\n"
        unanswered n_clients backlog
    end;
    Printf.printf
      "clients %2d backlog %3d: %6.0f qps, p50 %6.2f ms, p95 %6.2f ms, p99 \
       %6.2f ms, shed %4.1f%%, %d/%d answered\n%!"
      n_clients backlog qps (percentile lats 0.50) (percentile lats 0.95)
      (percentile lats 0.99)
      (100.0 *. shed_rate)
      answered total;
    Json.Obj
      [ ("clients", Json.Int n_clients);
        ("backlog", Json.Int backlog);
        ("requests", Json.Int total);
        ("answered", Json.Int answered);
        ("unanswered", Json.Int unanswered);
        ("qps", Json.Float qps);
        ("p50_ms", Json.Float (percentile lats 0.50));
        ("p95_ms", Json.Float (percentile lats 0.95));
        ("p99_ms", Json.Float (percentile lats 0.99));
        ("shed_rate", Json.Float shed_rate);
        ("served", Json.Int served);
        ("shed", Json.Int shed);
        ("expired", Json.Int expired);
        ("rejected", Json.Int rejected);
        ("parse_errors", Json.Int parse_errors);
        ("wall_ms", Json.Float wall_ms);
        ("server", Serve.Server.stats_json (Serve.Server.stats server)) ]
  in
  let sweep =
    List.concat_map
      (fun c -> List.map (fun b -> combo c b) !backlogs)
      !clients
  in
  (* --- multi-tenant scenario ------------------------------------------ *)
  (* Tenant "blue" runs the same policy minus one permission (provider
     Y loses plaintext visibility of P on Ins), so the two tenants
     genuinely plan differently over the same schemas. Correctness
     gates first: every pool query submitted under each tenant of one
     two-tenant service must be byte-identical to a
     single-tenant oracle service running that tenant's policy alone,
     a warm second pass must hit inside each tenant's own key space,
     and cross_tenant_hits must be 0 — here and after the socket load
     below. Any violation fails the bench with exit 2. *)
  let policy_a = env.Authz.Policy_dsl.policy in
  let policy_b =
    Authz.Authorization.make
      ~schemas:(Authz.Authorization.schemas policy_a)
      (List.map
         (fun (r : Authz.Authorization.rule) ->
           match r.Authz.Authorization.grantee with
           | Authz.Authorization.To s
             when r.Authz.Authorization.relation = "Ins"
                  && Authz.Subject.equal s (Authz.Subject.provider "Y") ->
               { r with
                 Authz.Authorization.plain =
                   Attr.Set.remove (Attr.make "P")
                     r.Authz.Authorization.plain }
           | _ -> r)
         (Authz.Authorization.rules policy_a))
  in
  let make_multi () =
    let s =
      Serve.Service.create ?pool ~policy:policy_a
        ~subjects:env.Authz.Policy_dsl.subjects ~tables ()
    in
    Serve.Service.add_tenant s ~id:"blue" ~policy:policy_b ();
    s
  in
  let outcome_equal a b =
    match (a, b) with
    | Serve.Service.Table x, Serve.Service.Table y ->
        List.equal Attr.equal (Engine.Table.attrs x) (Engine.Table.attrs y)
        && List.equal
             (fun (r1 : Value.t array) r2 -> r1 = r2)
             (Engine.Table.rows x) (Engine.Table.rows y)
    | Serve.Service.Rejected x, Serve.Service.Rejected y -> x = y
    | _ -> false
  in
  let divergences = ref 0 in
  let validation = make_multi () in
  let oracle policy =
    Serve.Service.create ~policy ~subjects:env.Authz.Policy_dsl.subjects
      ~tables ()
  in
  let oa = oracle policy_a and ob = oracle policy_b in
  Array.iter
    (fun q ->
      List.iter
        (fun (tenant, oracle_service) ->
          let m = Serve.Service.submit_sql ~tenant validation q in
          let o = Serve.Service.submit_sql oracle_service q in
          if
            not
              (outcome_equal m.Serve.Service.outcome o.Serve.Service.outcome)
          then begin
            incr divergences;
            Printf.eprintf
              "FAILURE: tenant %s diverges from its single-tenant oracle on \
               %s\n"
              tenant q
          end)
        [ (Serve.Tenancy.default_id, oa); ("blue", ob) ])
    queries;
  Array.iter
    (fun q ->
      List.iter
        (fun tenant ->
          let r = Serve.Service.submit_sql ~tenant validation q in
          if r.Serve.Service.status <> Serve.Service.Hit then begin
            incr divergences;
            Printf.eprintf "FAILURE: tenant %s missed on warm replay of %s\n"
              tenant q
          end)
        [ Serve.Tenancy.default_id; "blue" ])
    queries;
  let vstats = Serve.Service.stats validation in
  if vstats.Serve.Service.cross_tenant_hits <> 0 || !divergences > 0 then
    incr failures;
  (* socket load: half the clients switch to "blue" before their first
     request, the rest stay on the default tenant *)
  let mt_clients = 4 and mt_backlog = 64 in
  let mservice = make_multi () in
  let mconfig =
    { Serve.Server.backlog = mt_backlog; deadline_ms = !deadline_ms }
  in
  let mserver =
    Serve.Server.create ~config:mconfig ~service:mservice (Serve.Server.Tcp 0)
  in
  let maddr = Serve.Server.bound_addr mserver in
  let msrv = Domain.spawn (fun () -> Serve.Server.run mserver) in
  let mt0 = Unix.gettimeofday () in
  let mworkers =
    List.init mt_clients (fun i ->
        let tenant =
          if i mod 2 = 1 then "blue" else Serve.Tenancy.default_id
        in
        Domain.spawn (fun () ->
            client_worker ~tenant ~addr:maddr ~requests:!requests
              ~burst:!burst ~offset:(i * 3) ()))
  in
  let mtallies = List.map Domain.join mworkers in
  let mwall_ms = (Unix.gettimeofday () -. mt0) *. 1000.0 in
  Serve.Server.stop mserver;
  Domain.join msrv;
  let msum f = List.fold_left (fun acc t -> acc + f t) 0 mtallies in
  let manswered =
    msum (fun t ->
        t.served + t.shed + t.expired + t.rejected + t.parse_errors + t.other)
  in
  let munanswered = msum (fun t -> t.unanswered) in
  let mlats = Array.of_list (List.concat_map (fun t -> t.lats) mtallies) in
  Array.sort compare mlats;
  let mstats = Serve.Service.stats mservice in
  if munanswered > 0 then begin
    incr failures;
    Printf.eprintf
      "FAILURE: %d multi-tenant requests got no structured response\n"
      munanswered
  end;
  if mstats.Serve.Service.cross_tenant_hits <> 0 then begin
    incr failures;
    Printf.eprintf "FAILURE: %d cross-tenant hits under socket load\n"
      mstats.Serve.Service.cross_tenant_hits
  end;
  Printf.printf
    "multi-tenant: %d clients over %d tenants: %6.0f qps, p95 %6.2f ms, %d \
     cross-tenant hits, %d oracle divergences\n%!"
    mt_clients mstats.Serve.Service.tenants
    (float_of_int manswered /. (mwall_ms /. 1000.0))
    (percentile mlats 0.95)
    mstats.Serve.Service.cross_tenant_hits !divergences;
  let multi_tenant_json =
    Json.Obj
      [ ("clients", Json.Int mt_clients);
        ("backlog", Json.Int mt_backlog);
        ("requests", Json.Int (mt_clients * !requests));
        ("answered", Json.Int manswered);
        ("unanswered", Json.Int munanswered);
        ("tenants", Json.Int mstats.Serve.Service.tenants);
        ( "cross_tenant_hits",
          Json.Int mstats.Serve.Service.cross_tenant_hits );
        ("oracle_divergences", Json.Int !divergences);
        ("qps", Json.Float (float_of_int manswered /. (mwall_ms /. 1000.0)));
        ("p50_ms", Json.Float (percentile mlats 0.50));
        ("p95_ms", Json.Float (percentile mlats 0.95));
        ("p99_ms", Json.Float (percentile mlats 0.99));
        ("wall_ms", Json.Float mwall_ms);
        ( "per_tenant",
          Json.Obj
            (List.map
               (fun (id, st) -> (id, Serve.Tenancy.stats_json st))
               (Serve.Service.tenant_stats mservice)) );
        ("server", Serve.Server.stats_json (Serve.Server.stats mserver)) ]
  in
  let doc =
    Json.Obj
      [ ("bench", Json.String "load");
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("requests_per_client", Json.Int !requests);
        ("burst", Json.Int !burst);
        ( "deadline_ms",
          match !deadline_ms with
          | Some t -> Json.Int t
          | None -> Json.Null );
        ("quick", Json.Bool !quick);
        ("sweep", Json.List sweep);
        ("multi_tenant", multi_tenant_json) ]
  in
  let oc = open_out !out in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "report: %s\n" !out;
  if !failures > 0 then exit 2
