(* Measurement plumbing shared by the workloads: statistics, the
   benchmark's own request spans, measured phases, readings of the
   library's Obs tree, and the metric record the report prints. *)

let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- statistics ------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile; nan on no samples *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = ratio a (float_of_int n)

(* --- the benchmark's own spans ---------------------------------------- *)

(* One public call the benchmark made: [id] is the per-request id that
   ties the call to the spans the library records beneath it. *)
type span = {
  id : int;
  call : string;  (** submit, set_policy, invalidate, socket *)
  info : string;  (** tenant/query or policy version *)
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let log_span ~id ~call ~info ~t0 ~t1 =
  spans := { id; call; info; t0; t1 } :: !spans

(* [call name info f] runs one public call inside an Obs span named
   [bench.<name>] and logs it; returns the result and its latency. *)
let call name info f =
  let id = fresh_id () in
  let t0 = now () in
  let r = Obs.with_span ("bench." ^ name) f in
  let t1 = now () in
  log_span ~id ~call:name ~info ~t0 ~t1;
  (r, (t1 -. t0) *. 1000.0)

let spans_since id0 = List.filter (fun s -> s.id > id0) !spans

let latencies_ms ~call ss =
  List.filter_map
    (fun s -> if String.equal s.call call then Some ((s.t1 -. s.t0) *. 1000.0) else None)
    ss

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"call\":%S,\"info\":%S,\"start_s\":%.6f,\"dur_ms\":%.4f}\n"
        s.id s.call s.info s.t0
        ((s.t1 -. s.t0) *. 1000.0))
    (List.rev !spans);
  close_out oc

(* --- measured phases -------------------------------------------------- *)

type unit_run = { wall : float; cpu : float; requests : int }

(* Run [work] (one unit: a pass, a policy cycle, a round of bursts; it
   returns the requests it completed) while another unit as long as the
   last one still fits in [budget] seconds, or exactly [ops] units when
   given. Whole units only, so every run measures the same mix. *)
let phase ~budget ~ops work =
  let start = now () in
  let rec go acc i =
    let stop =
      match (ops, acc) with
      | Some n, _ -> i >= n
      | None, [] -> false
      | None, last :: _ -> now () -. start +. last.wall > budget
    in
    if stop then List.rev acc
    else begin
      let w0 = now () and c0 = cpu_s () in
      let requests = work () in
      go ({ wall = now () -. w0; cpu = cpu_s () -. c0; requests } :: acc) (i + 1)
    end
  in
  go [] 0

let total_requests units = List.fold_left (fun n u -> n + u.requests) 0 units

(* median over units, so one disturbed unit does not move the figure *)
let qps units =
  median (List.map (fun u -> float_of_int u.requests /. u.wall) units)

let cpu_ms_per_query units =
  median
    (List.map (fun u -> 1000.0 *. u.cpu /. float_of_int (max 1 u.requests)) units)

let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* --- Obs readings ----------------------------------------------------- *)

open Relalg

let field k = function
  | Json.Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let num = function
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.0

(* Self and total time (ms) per span name over the whole tree; self
   time is a span's total minus the part its children cover. A pool
   task's span ([par.d<k>]) does its parent's work on another domain, so
   its self time is charged to the parent. Children that ran in parallel
   can cover more than their parent's wall time; self time is then
   clamped at 0. *)
let span_times (report : Json.t) =
  let self = Hashtbl.create 64 and totals = Hashtbl.create 64 in
  let add t name v =
    Hashtbl.replace t name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t name))
  in
  let rec walk owner sp =
    let children =
      match field "children" sp with Some (Json.List cs) -> cs | _ -> []
    in
    let total = num (field "total_ms" sp) in
    let covered =
      List.fold_left (fun acc c -> acc +. num (field "total_ms" c)) 0.0 children
    in
    let name =
      match field "name" sp with Some (Json.String s) -> s | _ -> "?"
    in
    let owner =
      if String.starts_with ~prefix:"par.d" name then owner else name
    in
    add self owner (Float.max 0.0 (total -. covered));
    add totals name total;
    List.iter (walk owner) children
  in
  (match field "spans" report with
  | Some (Json.List roots) -> List.iter (walk "bench") roots
  | _ -> ());
  (self, totals)

let self_of tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* Sum over span names starting with [prefix]. *)
let sum_prefix tbl prefix =
  Hashtbl.fold
    (fun k v acc -> if String.starts_with ~prefix k then acc +. v else acc)
    tbl 0.0

(* The layer a span name belongs to: its library module. *)
let layer_of_span name =
  match String.index_opt name '.' with
  | None -> "bench"
  | Some i -> (
      match String.sub name 0 i with
      | "exec" | "engine" -> "engine"
      | "serve" -> "serve"
      | "planner" -> "planner"
      | "verify" -> "verify"
      | "analysis" -> "analysis"
      | _ -> "bench")

let span_layers = [ "bench"; "serve"; "planner"; "verify"; "analysis"; "engine" ]

let layer_shares tbl =
  let by = Hashtbl.create 8 in
  Hashtbl.iter
    (fun name v ->
      let l = layer_of_span name in
      Hashtbl.replace by l (v +. Option.value ~default:0.0 (Hashtbl.find_opt by l)))
    tbl;
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) by 0.0 in
  List.map
    (fun l ->
      (l, ratio (Option.value ~default:0.0 (Hashtbl.find_opt by l)) total))
    span_layers

let obs_counter report name = num (Option.bind (field "counters" report) (field name))

let obs_metric_total report name =
  num (Option.bind (Option.bind (field "metrics" report) (field name)) (field "total"))

(* --- metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* --- one run ---------------------------------------------------------- *)

type cfg = {
  seed : int;
  seconds : float;
  ops : int option;  (** fixed units per phase instead of a time budget *)
  trace : bool;
}

(* Repeat [setup] (three times; once in a traced run) and return the
   median time, the per-set-up extra readings, and the last instance
   (earlier ones are handed to [release]). *)
let repeated_setup cfg ~release setup =
  let rec go acc k =
    let t0 = now () in
    let x, extra = setup () in
    let acc = (now () -. t0, extra) :: acc in
    if k <= 1 then (median (List.map fst acc), List.map snd acc, x)
    else begin
      release x;
      go acc (k - 1)
    end
  in
  go [] (if cfg.trace then 1 else 3)

type 'a traced = {
  units : unit_run list;
  obs : Json.t;
  first_id : int;  (** spans with a larger id belong to the phase *)
  before : 'a;
  after : 'a;
  gc_before : Gc.stat;
  gc_after : Gc.stat;
  untraced_qps : float;
}

type plain = {
  p_units : unit_run list;
  p_first_id : int;
  peak_heap_mb : float;  (** read at the end of the phase, before any checking *)
}

type 'a measured = Plain of plain | Traced of 'a traced

(* The measured phase. Untraced, it runs [work] for the whole budget.
   Traced, it runs half the budget untraced (the baseline of the tracing
   overhead) and half with Obs on, taking [snapshot]s of the caller's
   counters at the traced phase's edges. Obs is switched only between
   units, when the benchmark and every server are idle. *)
let measure cfg ~snapshot work =
  if not cfg.trace then begin
    let p_first_id = !next_id in
    let p_units = phase ~budget:cfg.seconds ~ops:cfg.ops work in
    Plain { p_units; p_first_id; peak_heap_mb = heap_mb () }
  end
  else begin
    let half = cfg.seconds /. 2.0 in
    let untraced = phase ~budget:half ~ops:cfg.ops work in
    Obs.reset ();
    let before = snapshot () and gc_before = Gc.quick_stat () in
    let first_id = !next_id in
    Obs.set_enabled true;
    let units = phase ~budget:half ~ops:cfg.ops work in
    Obs.set_enabled false;
    let after = snapshot () and gc_after = Gc.quick_stat () in
    Traced
      { units; obs = Obs.render_json (); first_id; before; after; gc_before;
        gc_after; untraced_qps = qps untraced }
  end

(* The end-to-end metrics of an untraced phase whose requests are the
   [call] spans; the set-policy median is added when the phase has any. *)
let e2e p ~call ~tail ~setup_s =
  let phase = spans_since p.p_first_id in
  let lats = latencies_ms ~call phase in
  (match latencies_ms ~call:"set_policy" phase with
  | [] -> []
  | us -> [ m "update_p50_ms" "ms" (median us) ])
  @ [ m "throughput_qps" "1/s" (qps p.p_units);
      m "latency_p50_ms" "ms" (percentile lats 0.5);
      m "latency_tail_ms" "ms" (percentile lats tail);
      m "cpu_ms_per_query" "ms" (cpu_ms_per_query p.p_units);
      m "setup_s" "s" setup_s;
      m "heap_mb" "MB" p.peak_heap_mb ]

(* operator output rows of the traced phase; 0 when untraced *)
let rows_out = function
  | Plain _ -> 0
  | Traced tr -> int_of_float (obs_counter tr.obs "exec.rows_out")

(* Planner, verifier, analysis, engine and crypto metrics read from the
   library's own spans, counters and timers: planning work per cache
   miss, execution work per completed request. *)
let obs_layers tr ~misses ~n =
  let self, _ = span_times tr.obs in
  let c = obs_counter tr.obs in
  let ms name = 1000.0 *. obs_metric_total tr.obs name in
  List.map
    (fun p -> m ("planner.self_ms." ^ p) "ms" (per (self_of self ("planner." ^ p)) misses))
    [ "plan"; "candidates"; "dp"; "extend"; "keys"; "sweep"; "cost" ]
  @ [ m "planner.evaluate_memo_hit_rate" "ratio"
        (ratio (c "planner.evaluate.memo_hits") (c "planner.evaluate.calls"));
      m "planner.dp_view_cache_hit_rate" "ratio"
        (let h = c "planner.dp.view_cache_hits" in
         ratio h (h +. c "planner.dp.view_cache_misses"));
      m "verify.self_ms" "ms"
        (per (sum_prefix self "verify." +. self_of self "planner.self_check") misses);
      m "analysis.deps_self_ms" "ms"
        (per (self_of self "analysis.deps" +. self_of self "analysis.subdeps") misses) ]
  @ List.map
      (fun op -> m ("engine.op_ms." ^ op) "ms" (per (ms ("exec.op_s." ^ op)) n))
      [ "join"; "select"; "project"; "group_by"; "encrypt"; "decrypt" ]
  @ [ m "engine.rows_out_per_query" "count" (per (c "exec.rows_out") n) ]
  @ List.concat_map
      (fun dir ->
        List.map
          (fun sch ->
            m (Printf.sprintf "crypto.%s_ms.%s" dir sch) "ms"
              (per (ms (Printf.sprintf "enc_exec.%s_s.%s" dir sch)) n))
          [ "det"; "rnd"; "ope"; "phe" ])
      [ "enc"; "dec" ]

(* Cache and policy-migration metrics from Service.stats at the traced
   phase's edges, and the latency of the phase's set_policy calls. *)
let service_layers (tr : Serve.Service.stats traced) =
  let d f = f tr.after - f tr.before in
  let module S = Serve.Service in
  let hits = d (fun s -> s.S.hits) and misses = d (fun s -> s.S.misses) in
  let updates = latencies_ms ~call:"set_policy" (spans_since tr.first_id) in
  let n_updates = List.length updates in
  let per_update f = per (float_of_int (d f)) n_updates in
  [ m "serve.hit_rate" "ratio" (per (float_of_int hits) (hits + misses));
    m "serve.subplan_hit_rate" "ratio"
      (let h = d (fun s -> s.S.subplan_hits) in
       per (float_of_int h) (h + d (fun s -> s.S.subplan_stores)));
    m "serve.shared_execs" "count" (float_of_int (d (fun s -> s.S.shared_execs)));
    m "analysis.update_ms" "ms" (if updates = [] then 0.0 else median updates);
    m "analysis.dropped_per_update" "count" (per_update (fun s -> s.S.invalidated));
    m "analysis.retained_per_update" "count" (per_update (fun s -> s.S.retained));
    m "analysis.reverified_per_update" "count" (per_update (fun s -> s.S.reverified)) ]

(* Layer metrics every workload reports from its traced phase. *)
let common_layers tr =
  let n = total_requests tr.units in
  let self, _ = span_times tr.obs in
  [ m "gc.minor_words_per_query" "words"
      (per (tr.gc_after.Gc.minor_words -. tr.gc_before.Gc.minor_words) n);
    m "gc.major_collections" "count"
      (float_of_int
         (tr.gc_after.Gc.major_collections - tr.gc_before.Gc.major_collections));
    m "trace.overhead" "ratio" (1.0 -. ratio (qps tr.units) tr.untraced_qps) ]
  @ List.map (fun (l, share) -> m (l ^ ".self_share") "ratio" share) (layer_shares self)

(* --- results ---------------------------------------------------------- *)

type result = {
  e2e : metric list;
  layers : metric list;
  counters : (string * int) list;
      (** counts that repeat exactly for a given seed and [ops] *)
  attempted : int;
  failed : int;
}

let out_dir = "perfbench/out"

(* Write the run's spans and the traced phase's Obs report under [out_dir]. *)
let write_trace cfg name obs =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" name cfg.seed) in
  write_spans (base ^ ".spans.jsonl");
  let oc = open_out (base ^ ".obs.json") in
  output_string oc (Json.to_string obs);
  close_out oc
