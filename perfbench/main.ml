(* perfbench — end-to-end benchmark of the served query path.

     main.exe --workload tpch-cold|tpch-churn|socket-pipelined
              --seed N --seconds S --trace 0|1 [--ops N]

   Run from the repository root (the socket workload reads examples/).
   Prints each metric on its own line, then, as the last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the per-layer
   ones, from a run with Obs switched on, and the run's spans and Obs
   report are written under perfbench/out/. --ops N replaces the time budget
   by N units of work per phase, so counters repeat exactly for a seed.
   Exits 2 when any response diverges from its oracle. *)

open Measure

let workloads =
  [ ("tpch-cold", Tpch_load.cold);
    ("tpch-churn", Tpch_load.churn);
    ("socket-pipelined", Socket_load.run) ]

(* the end-to-end metrics every workload reports in its result line *)
let e2e_names =
  [ "throughput_qps"; "latency_p50_ms"; "latency_tail_ms"; "cpu_ms_per_query";
    "setup_s"; "heap_mb" ]

(* layer metrics only some workloads have; the others report 0 *)
let partial_layers =
  [ ("sql.parse_ms_p50", "ms"); ("server.stall_share", "ratio");
    ("server.service_share", "ratio"); ("server.accepted", "count");
    ("server.shed", "count"); ("server.parse_errors", "count");
    ("tpch.generate_s", "s"); ("par.tasks_per_query", "count");
    ("par.batches_per_query", "count"); ("par.pool_ms_per_query", "ms");
    ("par.cpu_per_wall", "ratio"); ("par.speedup", "ratio") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--ops N]";
  exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let ops = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := t = "1"; parse rest
    | "--ops" :: n :: rest -> ops := Some (int_of_string n); parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run = match List.assoc_opt !workload workloads with Some f -> f | None -> usage () in
  let cfg = { seed = !seed; seconds = !seconds; ops = !ops; trace = !trace } in
  let r = run cfg in
  let show (x : metric) = Printf.printf "%-34s %14.6f %s\n" x.name x.value x.unit in
  Printf.printf "workload %s seed %d host_cores %d\n" !workload cfg.seed
    (Domain.recommended_domain_count ());
  let metrics =
    if cfg.trace then
      r.layers
      @ List.filter_map
          (fun (name, unit) ->
            if List.exists (fun (x : metric) -> x.name = name) r.layers then None
            else Some (m name unit 0.0))
          partial_layers
    else begin
      List.iter show r.e2e;
      show (m "fail_rate" "ratio" (per (float_of_int r.failed) r.attempted));
      List.filter (fun (x : metric) -> List.mem x.name e2e_names) r.e2e
    end
  in
  if cfg.trace then List.iter show metrics;
  Printf.printf "counters {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) r.counters));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (x : metric) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
              (if Float.is_finite x.value then x.value else 0.0)
              x.unit)
          metrics));
  if r.failed > 0 then exit 2
