(* The two TPC-H workloads. Both serve the 22 queries under three
   tenants (the paper's UA, UAPenc and UAPmix scenarios) from one
   Service at sf 0.001, and check every response against an isolated
   oracle: a fresh [~sharing:false] Service per (tenant, policy
   version).

   - tpch-cold: one domain; each pass invalidates the caches and
     submits all 66 (tenant, query) pairs in seeded order, so planning,
     verification and encrypted execution run on every request. The
     traced run adds one pass on a Par pool (see [pool_probe]).
   - tpch-churn: no pool; warm reads drawn from the 66 keys, with every
     [every]-th operation a set_policy stepping through a fixed seeded
     cycle of single-grant revocations, each followed by its restore.
     The cycle repeats, so the cache reaches a steady state instead of
     drifting with run length. *)

open Relalg
open Measure
module S = Serve.Service

let sf = 0.001
let scenarios = Tpch.Scenarios.all
let tenant = Tpch.Scenarios.name
let queries = List.map (fun (q, _, _) -> q) Tpch.Tpch_queries.all

let keys =
  Array.of_list
    (List.concat_map (fun sc -> List.map (fun q -> (sc, q)) queries) scenarios)

let tables () =
  let data = Tpch.Tpch_data.generate ~sf () in
  List.map
    (fun (s : Schema.t) ->
      (s.Schema.name, Engine.Table.of_schema s (List.assoc s.Schema.name data)))
    Tpch.Tpch_schema.all

let service ?pool ~sharing ~tables tenants =
  let svc =
    S.create ?pool ~sharing
      ~policy:(Tpch.Scenarios.policy Tpch.Scenarios.UA)
      ~subjects:Tpch.Scenarios.subjects ~pricing:Tpch.Scenarios.pricing
      ~base:(Tpch.Tpch_schema.base_stats ~sf)
      ~deliver_to:Tpch.Scenarios.user ~udfs:Tpch.Tpch_queries.udf_impls
      ~tables ()
  in
  List.iter (fun (sc, policy) -> S.add_tenant svc ~id:(tenant sc) ~policy ()) tenants;
  svc

let base_tenants = List.map (fun sc -> (sc, Tpch.Scenarios.policy sc)) scenarios

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- responses and the oracle ----------------------------------------- *)

type served = {
  sc : Tpch.Scenarios.t;
  q : int;
  version : int;  (** policy version of the tenant when served; 0 = base *)
  outcome : S.outcome;
  status : S.status;
  plan_ms : float;
  exec_ms : float;
  span_id : int;
}

let submit svc served ~version (sc, q) =
  let plan = Tpch.Tpch_queries.query q in
  let resp, _ =
    call "submit"
      (Printf.sprintf "%s/q%d" (tenant sc) q)
      (fun () -> S.submit ~tenant:(tenant sc) svc plan)
  in
  (* keep only what the checks and metrics read: a whole response pins
     its cache key and plan *)
  served :=
    { sc; q; version; outcome = resp.S.outcome; status = resp.S.status;
      plan_ms = resp.S.plan_ms; exec_ms = resp.S.exec_ms; span_id = !next_id }
    :: !served

type oracle = {
  o_tables : (string * Engine.Table.t) list;
  policy_of : Tpch.Scenarios.t -> int -> Authz.Authorization.t;
  services : (string * int, S.t) Hashtbl.t;
  answers : (string * int * int, S.outcome) Hashtbl.t;
}

let oracle policy_of =
  { o_tables = tables (); policy_of; services = Hashtbl.create 8;
    answers = Hashtbl.create 128 }

let expected o s =
  let k = (tenant s.sc, s.version, s.q) in
  match Hashtbl.find_opt o.answers k with
  | Some a -> a
  | None ->
      let svc =
        match Hashtbl.find_opt o.services (tenant s.sc, s.version) with
        | Some svc -> svc
        | None ->
            let svc =
              service ~sharing:false ~tables:o.o_tables
                [ (s.sc, o.policy_of s.sc s.version) ]
            in
            Hashtbl.add o.services (tenant s.sc, s.version) svc;
            svc
      in
      let a =
        (S.submit ~tenant:(tenant s.sc) svc (Tpch.Tpch_queries.query s.q)).S.outcome
      in
      Hashtbl.add o.answers k a;
      a

let same_bytes a b =
  List.equal Attr.equal (Engine.Table.attrs a) (Engine.Table.attrs b)
  && List.equal
       (fun (x : Value.t array) y -> x = y)
       (Engine.Table.rows a) (Engine.Table.rows b)

(* Number of responses that differ from the oracle's bytes. A rejection
   must match the oracle's rejection message too. *)
let failures o served =
  List.fold_left
    (fun n s ->
      let ok =
        match (s.outcome, expected o s) with
        | S.Table got, S.Table want -> same_bytes got want
        | S.Rejected got, S.Rejected want -> String.equal got want
        | _ -> false
      in
      if ok then n
      else begin
        Printf.eprintf "perfbench: DIVERGENCE %s q%d (policy version %d)\n%!"
          (tenant s.sc) s.q s.version;
        n + 1
      end)
    0 served

(* --- shared readings -------------------------------------------------- *)

let counters_of svc =
  let s = S.stats svc in
  [ ("hits", s.S.hits); ("misses", s.S.misses);
    ("subplan_hits", s.S.subplan_hits); ("invalidated", s.S.invalidated);
    ("retained", s.S.retained); ("reverified", s.S.reverified);
    ("cross_tenant_hits", s.S.cross_tenant_hits) ]

(* Per-layer metrics of a traced phase of a TPC-H workload. *)
let layers tr ~served ~gen_s =
  let phase = List.filter (fun s -> s.span_id > tr.first_id) served in
  let n = List.length phase in
  let misses = tr.after.S.misses - tr.before.S.misses in
  let plan_ms status =
    List.filter_map (fun s -> if s.status = status then Some s.plan_ms else None) phase
  in
  service_layers tr
  @ [ m "serve.probe_ms_p50" "ms"
        (match plan_ms S.Hit with [] -> 0.0 | xs -> median xs);
      m "serve.plan_ms_per_miss" "ms"
        (per (List.fold_left ( +. ) 0.0 (plan_ms S.Miss)) misses);
      m "serve.exec_ms_per_query" "ms"
        (per (List.fold_left (fun a s -> a +. s.exec_ms) 0.0 phase) n) ]
  @ obs_layers tr ~misses ~n
  @ [ m "tpch.generate_s" "s" (median gen_s) ]
  @ common_layers tr

let finish ?(extra = []) cfg ~name ~svc ~oracle ~served ~measured ~setup_s ~gen_s
    ~tail =
  let served = !served in
  let failed = failures oracle served in
  let counters = counters_of svc @ [ ("rows_out", rows_out measured) ] in
  match measured with
  | Plain p ->
      { e2e = e2e p ~call:"submit" ~tail ~setup_s; layers = [];
        counters; attempted = List.length served; failed }
  | Traced tr ->
      write_trace cfg name tr.obs;
      { e2e = []; layers = layers tr ~served ~gen_s @ extra; counters;
        attempted = List.length served; failed }

(* --- tpch-cold -------------------------------------------------------- *)

(* The pool's cost: one invalidated pass on a fresh service with a pool
   of nproc domains, traced, after a warm-up pass, against the traced
   single-domain passes' throughput [base_qps]. Read in the traced run
   only: on a 2-vCPU VM pooled runs spread 10-20 qps where one domain
   gave 19-24 qps, too wide for an end-to-end bound. *)
let pool_probe ~pass ~order ~base_qps =
  Par.with_pool ~name:"par" (Domain.recommended_domain_count ()) @@ fun pool ->
  let svc = service ?pool ~sharing:true ~tables:(tables ()) base_tenants in
  ignore (pass svc order);
  Obs.reset ();
  Obs.set_enabled true;
  let w0 = now () and c0 = cpu_s () in
  let n = pass svc order in
  let wall = now () -. w0 and cpu = cpu_s () -. c0 in
  Obs.set_enabled false;
  let obs = Obs.render_json () in
  let _, totals = span_times obs in
  [ m "par.tasks_per_query" "count" (per (obs_counter obs "par.tasks") n);
    m "par.batches_per_query" "count" (per (obs_counter obs "par.batches") n);
    m "par.pool_ms_per_query" "ms" (per (sum_prefix totals "par.d") n);
    m "par.cpu_per_wall" "ratio" (ratio cpu wall);
    m "par.speedup" "ratio" (ratio (float_of_int n /. wall) base_qps) ]

let cold cfg =
  let served = ref [] in
  let pass svc order =
    ignore (call "invalidate" "" (fun () -> S.invalidate svc));
    Array.iter (submit svc served ~version:0) order;
    Array.length order
  in
  let warm_order = shuffle (Random.State.make [| cfg.seed; 0 |]) keys in
  let setup_s, gen_s, svc =
    repeated_setup cfg ~release:ignore (fun () ->
        let t0 = now () in
        let tables = tables () in
        let gen = now () -. t0 in
        let svc = service ~sharing:true ~tables base_tenants in
        ignore (pass svc warm_order);
        (svc, gen))
  in
  let order_rng = Random.State.make [| cfg.seed; 1 |] in
  let measured =
    measure cfg
      ~snapshot:(fun () -> S.stats svc)
      (fun () -> pass svc (shuffle order_rng keys))
  in
  let extra =
    match measured with
    | Plain _ -> []
    | Traced tr -> pool_probe ~pass ~order:warm_order ~base_qps:(qps tr.units)
  in
  let oracle = oracle (fun sc _ -> Tpch.Scenarios.policy sc) in
  finish ~extra cfg ~name:"tpch-cold" ~svc ~oracle ~served ~measured ~setup_s
    ~gen_s ~tail:0.95

(* --- tpch-churn ------------------------------------------------------- *)

let every = 20
let warm_cycles = 10

(* The policy-version cycle: one single-grant revocation per tenant that
   grants providers anything (UA grants them nothing), in seeded order,
   each followed by the restore of the tenant's base policy. Version 0 is
   every tenant's base policy; revocation [i] is version [i].

   One revoked grant per tenant makes the cycle converge: a plan re-made
   under a revocation avoids the revoked grant, so it survives the
   restore and every later revocation of that grant. A dropped entry
   that is next read after the restore is re-planned under the base
   policy and dropped again, so convergence takes a few cycles; the
   warm-up runs [warm_cycles] of them. With several grants revoked in
   turn on one tenant, some seeds never converge: each revocation's
   re-plans lean on a grant the next revocation takes, and the measured
   phase swings between hit-path and re-planning cost from seed to
   seed. *)
let version_cycle seed =
  let rng = Random.State.make [| seed; 3 |] in
  let granting = shuffle rng [| Tpch.Scenarios.UAPenc; Tpch.Scenarios.UAPmix |] in
  let revoked =
    Array.map (fun sc -> (sc, Gen.revoke_once (Tpch.Scenarios.policy sc) rng)) granting
  in
  let policy_of sc v = if v = 0 then Tpch.Scenarios.policy sc else snd revoked.(v - 1) in
  let steps =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i (sc, p) -> [| (sc, i + 1, p); (sc, 0, Tpch.Scenarios.policy sc) |])
            revoked))
  in
  (steps, policy_of)

let churn cfg =
  let steps, policy_of = version_cycle cfg.seed in
  let served = ref [] in
  let version = Hashtbl.create 4 in
  let cycle svc draw =
    let reads = ref 0 in
    Array.iter
      (fun (sc, v, policy) ->
        for _ = 1 to every - 1 do
          let ((sc', _) as key) = keys.(Random.State.int draw (Array.length keys)) in
          let ver = Option.value ~default:0 (Hashtbl.find_opt version (tenant sc')) in
          submit svc served ~version:ver key;
          incr reads
        done;
        ignore
          (call "set_policy"
             (Printf.sprintf "%s/v%d" (tenant sc) v)
             (fun () -> S.set_policy ~tenant:(tenant sc) svc policy));
        Hashtbl.replace version (tenant sc) v)
      steps;
    !reads
  in
  let setup_s, gen_s, svc =
    repeated_setup cfg ~release:ignore (fun () ->
        let t0 = now () in
        let tables = tables () in
        let gen = now () -. t0 in
        let svc = service ~sharing:true ~tables base_tenants in
        Array.iter
          (submit svc served ~version:0)
          (shuffle (Random.State.make [| cfg.seed; 0 |]) keys);
        let draw = Random.State.make [| cfg.seed; 4 |] in
        for _ = 1 to warm_cycles do
          ignore (cycle svc draw)
        done;
        (svc, gen))
  in
  let draw = Random.State.make [| cfg.seed; 2 |] in
  let measured = measure cfg ~snapshot:(fun () -> S.stats svc) (fun () -> cycle svc draw) in
  let oracle = oracle policy_of in
  finish cfg ~name:"tpch-churn" ~svc ~oracle ~served ~measured ~setup_s ~gen_s
    ~tail:0.99
