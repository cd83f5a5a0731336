(* socket-pipelined: the socket front end under pipelined load while the
   service work stays trivial. An in-process Serve.Server (default
   config, its own domain) serves the paper's running example from
   examples/; one generator drives [conns] TCP connections in lockstep,
   each sending bursts of [burst] SQL lines drawn seeded from the six
   load-bench queries and waiting for every reply before the next burst.
   After the first replies everything is a plan-cache hit, so the server
   loop, SQL parsing and the socket stack carry the latency. Replies are
   checked against a direct Service.submit_sql on the same tables. *)

open Relalg
open Measure
module S = Serve.Service
module C = Serve.Client

let queries =
  [| "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by \
      T having P>100";
     "select S, D from Hosp where T='tpa'";
     "select C, P from Ins where P>100";
     "select D, count(T) from Hosp group by D";
     "select T, P from Hosp join Ins on S=C where P>100";
     "select avg(P) from Ins" |]

let conns = 2
let burst = 16
let rounds_per_unit = 10
let warm_rounds = 8

let environment () =
  let env = Authz.Policy_dsl.load "examples/policies/running_example.mpq" in
  let schema name =
    List.find (fun s -> String.equal s.Schema.name name) env.Authz.Policy_dsl.schemas
  in
  let tables =
    [ ("Hosp", Engine.Csv.load (schema "Hosp") "examples/data/hosp.csv");
      ("Ins", Engine.Csv.load (schema "Ins") "examples/data/ins.csv") ]
  in
  S.create ~policy:env.Authz.Policy_dsl.policy
    ~subjects:env.Authz.Policy_dsl.subjects ~tables ()

type conn = {
  client : C.t;
  mutable line : int;  (** request lines sent on this session *)
  sent : (int, int * float * int) Hashtbl.t;  (** line -> query, send time, span id *)
}

type server = {
  srv : Serve.Server.t;
  svc : S.t;
  domain : unit Domain.t;
  cs : conn array;
}

type reply = { qi : int; r : C.reply; span_id : int }

let replies : reply list ref = ref []

let recv cn =
  match C.recv cn.client with
  | None -> failwith "socket-pipelined: server closed a session owing replies"
  | Some r ->
      let t1 = now () in
      (match Hashtbl.find_opt cn.sent r.C.line with
      | None -> failwith "socket-pipelined: reply to a line never sent"
      | Some (qi, t0, id) ->
          Hashtbl.remove cn.sent r.C.line;
          log_span ~id ~call:"socket" ~info:(string_of_int qi) ~t0 ~t1;
          replies := { qi; r; span_id = id } :: !replies)

let send cn qi =
  cn.line <- cn.line + 1;
  Hashtbl.replace cn.sent cn.line (qi, now (), fresh_id ());
  C.send cn.client queries.(qi)

(* One round: a burst on every connection, then every reply. *)
let round s draw =
  Array.iter
    (fun cn ->
      for _ = 1 to burst do
        send cn (Random.State.int draw (Array.length queries))
      done)
    s.cs;
  for _ = 1 to burst do
    Array.iter recv s.cs
  done;
  burst * conns

let start () =
  let svc = environment () in
  let srv = Serve.Server.create ~service:svc (Serve.Server.Tcp 0) in
  let domain = Domain.spawn (fun () -> Serve.Server.run srv) in
  let addr = Serve.Server.bound_addr srv in
  let cs =
    Array.init conns (fun _ ->
        { client = C.connect ~timeout_s:30.0 addr; line = 0; sent = Hashtbl.create 64 })
  in
  { srv; svc; domain; cs }

let stop s =
  Array.iter
    (fun cn ->
      C.shutdown_send cn.client;
      ignore (C.recv_all cn.client);
      C.close cn.client)
    s.cs;
  Serve.Server.stop s.srv;
  Domain.join s.domain

(* Replies that differ from the direct service's answer, or that carry
   no table where the oracle has one (shed, expired, refused). *)
let failures () =
  let oracle = environment () in
  let expected =
    Array.map
      (fun sql ->
        match (S.submit_sql oracle sql).S.outcome with
        | S.Table t -> Some (Engine.Csv.to_string t)
        | S.Rejected _ | S.Expired _ -> None)
      queries
  in
  List.fold_left
    (fun n { qi; r; _ } ->
      let ok =
        match expected.(qi) with
        | Some csv ->
            (r.C.tag = "hit" || r.C.tag = "miss")
            && C.table_csv r = Some csv
        | None -> r.C.tag = "rejected"
      in
      if ok then n
      else begin
        Printf.eprintf "perfbench: DIVERGENCE socket query %d: %s: %s\n%!" qi
          r.C.tag r.C.info;
        n + 1
      end)
    0 !replies

(* plan time the server reports on a hit's status line *)
let plan_ms_of (r : C.reply) =
  try Scanf.sscanf r.C.info "plan %f ms" Fun.id with _ -> Float.nan

let parse_ms_p50 () =
  let svc = environment () in
  let times =
    List.concat_map
      (fun sql ->
        List.init 100 (fun _ ->
            let t0 = now () in
            ignore (Sys.opaque_identity (S.parse svc sql));
            (now () -. t0) *. 1000.0))
      (Array.to_list queries)
  in
  median times

let server_stats s =
  let st = Serve.Server.stats s.srv in
  (S.stats s.svc, st)

let layers tr =
  let ((svc0 : S.stats), (srv0 : Serve.Server.stats)) = tr.before in
  let ((svc1 : S.stats), (srv1 : Serve.Server.stats)) = tr.after in
  let phase = List.filter (fun x -> x.span_id > tr.first_id) !replies in
  let n = List.length phase in
  let lats = latencies_ms ~call:"socket" (spans_since tr.first_id) in
  let _, totals = span_times tr.obs in
  let misses = svc1.S.misses - svc0.S.misses in
  let svc_tr = { tr with before = svc0; after = svc1 } in
  let d f = float_of_int (f srv1 - f srv0) in
  service_layers svc_tr
  @ [ m "serve.probe_ms_p50" "ms"
        (median
           (List.filter_map
              (fun x -> if x.r.C.tag = "hit" then Some (plan_ms_of x.r) else None)
              phase));
      m "serve.plan_ms_per_miss" "ms" (per (svc1.S.plan_ms -. svc0.S.plan_ms) misses);
      m "serve.exec_ms_per_query" "ms" (per (svc1.S.exec_ms -. svc0.S.exec_ms) n);
      m "sql.parse_ms_p50" "ms" (parse_ms_p50 ());
      m "server.stall_share" "ratio"
        (per (float_of_int (List.length (List.filter (fun l -> l >= 40.0) lats))) n);
      m "server.service_share" "ratio"
        (ratio (self_of totals "serve.batch") (List.fold_left ( +. ) 0.0 lats));
      m "server.accepted" "count" (d (fun s -> s.Serve.Server.accepted));
      m "server.shed" "count" (d (fun s -> s.Serve.Server.shed));
      m "server.parse_errors" "count" (d (fun s -> s.Serve.Server.parse_errors)) ]
  @ obs_layers tr ~misses ~n
  @ common_layers tr

let run cfg =
  let warm s =
    (* each query once, alone, so every later request is a cache hit *)
    let cn = s.cs.(0) in
    Array.iteri
      (fun qi _ ->
        send cn qi;
        recv cn)
      queries;
    let draw = Random.State.make [| cfg.seed; 0 |] in
    for _ = 1 to warm_rounds do
      ignore (round s draw)
    done
  in
  let setup_s, _, s =
    repeated_setup cfg ~release:stop (fun () ->
        let s = start () in
        warm s;
        (s, ()))
  in
  let draw = Random.State.make [| cfg.seed; 1 |] in
  let measured =
    measure cfg
      ~snapshot:(fun () -> server_stats s)
      (fun () ->
        let n = ref 0 in
        for _ = 1 to rounds_per_unit do
          n := !n + round s draw
        done;
        !n)
  in
  let st = S.stats s.svc and srv_st = Serve.Server.stats s.srv in
  stop s;
  let failed = failures () in
  (* no subplan_hits: how the server batches pipelined lines depends on
     packet timing, and a same-key request in the same batch is aliased
     instead of answered from the sub-plan cache *)
  let counters =
    [ ("hits", st.S.hits); ("misses", st.S.misses); ("shed", srv_st.Serve.Server.shed);
      ("cross_tenant_hits", st.S.cross_tenant_hits);
      ("rows_out", rows_out measured) ]
  in
  let attempted = List.length !replies in
  match measured with
  | Plain p ->
      { e2e = e2e p ~call:"socket" ~tail:0.90 ~setup_s; layers = []; counters;
        attempted; failed }
  | Traced tr ->
      write_trace cfg "socket-pipelined" tr.obs;
      { e2e = []; layers = layers tr; counters; attempted; failed }
