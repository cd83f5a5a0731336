(* churn_bench — retained hit rate under policy churn: incremental
   dependency-based invalidation vs full fingerprint rotation.

   One mutation-heavy stream (generated queries with verbatim repeats,
   interleaved grant/revoke policy mutations — the generators the
   differential tests replay) is concretized once and then served three
   times from identical initial state:

     incremental — Serve.Service with the default dependency-based
                   policy invalidation (lib/analysis);
     rotation    — the same service, with every policy change applied
                   as [set_policy ~subjects] (re-supplying the unchanged
                   subjects): the subject-swap path rotates the
                   fingerprint without migrating, the pre-analysis
                   behaviour where every policy change strands the
                   whole cache;
     oracle      — a fresh cache-less service per query (replan + verify
                   + execute from scratch under the then-current policy).

   At every stream position the three answers are compared. Executed
   tables must agree as canonical row multisets (an incrementally
   retained entry may carry a differently shaped — but equally verified
   — plan than a fresh replan, and plan shape decides the arrival order
   of rows at a final grouping; content must be identical). Rejections
   must agree as verdicts; a retained denial may cite a different first
   cause than a fresh replan under a strictly smaller policy (both are
   true), so message drift is reported separately, not as divergence.
   Any real divergence makes the bench exit 2.

     dune exec bench/churn_bench.exe               # full stream
     dune exec bench/churn_bench.exe -- --quick    # CI smoke subset
     dune exec bench/churn_bench.exe -- --events 800 -o out.json

   The report is one JSON document (default [BENCH_churn.json]) with
   the two cache's hit/miss/migration counters, wall-clock, and the
   headline ratio of incremental to rotation warm hits. *)

open Relalg

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* canonical row-multiset equality (see header) *)
let canonical_equal a b =
  List.equal Attr.equal (Engine.Table.attrs a) (Engine.Table.attrs b)
  && List.sort compare (Engine.Table.rows a)
     = List.sort compare (Engine.Table.rows b)

(* the random-catalog fixtures the serve tests use *)
let tables () =
  let mk schema n row =
    (schema.Schema.name, Engine.Table.of_schema schema (List.init n row))
  in
  let strs = [| "ga"; "bu"; "zo"; "meu" |] in
  [ mk Gen.rel1 17 (fun i ->
        [| Value.Int (i mod 7); Value.Int (i * 3 mod 11);
           Value.Str strs.(i mod 4); Value.Int (i mod 5) |]);
    mk Gen.rel2 13 (fun i ->
        [| Value.Int (i mod 7); Value.Int (i mod 9); Value.Str strs.(i mod 4) |]);
    mk Gen.rel3 11 (fun i -> [| Value.Int (i mod 6); Value.Int (i mod 4) |]) ]

(* A generous base policy: every subject is explicitly granted full
   plaintext visibility of every relation (plain implies enc in this
   model). Churn then revokes and re-grants single (subject, attribute,
   level) facts out of a large universe, so most mutations are not
   load-bearing for most cached plans — the regime dependency-based
   invalidation is built for. (Gen.gen_policy's minimal random slices
   are the wrong workload here: under them the first few revocations
   strip the only authorized executors, the pool degenerates to
   denials, and both caches just thrash.) *)
let base_policy =
  let open Authz in
  let rule schema subject =
    let attrs = List.map Attr.name (Schema.attr_list schema) in
    Authorization.rule ~rel:schema.Schema.name ~plain:attrs (To subject)
  in
  let rules =
    List.concat_map
      (fun sch -> List.map (rule sch) Gen.subjects)
      Gen.schemas
  in
  Authorization.make ~schemas:Gen.schemas rules

let udf_impls =
  [ ( "f",
      fun vals ->
        let total =
          List.fold_left
            (fun acc v ->
              match Value.to_float v with Some f -> acc +. f | None -> acc)
            0.0 vals
        in
        Value.Int (int_of_float total mod 97) ) ]

let () =
  let quick = ref false in
  let out = ref "BENCH_churn.json" in
  let events = ref 500 in
  let pool_size = ref 12 in
  let repeat_rate = ref 0.75 in
  let mutation_rate = ref 0.45 in
  let seed = ref 0xC0FFEE in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "-o" :: file :: rest ->
        out := file;
        parse rest
    | "--events" :: n :: rest ->
        events := int_of_string n;
        parse rest
    | "--pool" :: n :: rest ->
        pool_size := int_of_string n;
        parse rest
    | "--repeat" :: f :: rest ->
        repeat_rate := float_of_string f;
        parse rest
    | "--mutation" :: f :: rest ->
        mutation_rate := float_of_string f;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "churn_bench: unknown argument %s\n\
           usage: churn_bench [--quick] [--events N] [--pool N] \
           [--repeat F] [--mutation F] [--seed N] [-o FILE]\n"
          arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !quick then events := 120;
  let rand = Random.State.make [| !seed |] in
  let plan_pool = Array.init !pool_size (fun _ -> Gen.gen_plan rand) in
  let policy0 = base_policy in
  let raw_events =
    Gen.gen_stream ~repeat_rate:!repeat_rate ~mutation_rate:!mutation_rate
      ~pool:plan_pool !events rand
  in
  (* concretize the mutations once, so every replay sees the same
     policies at the same positions *)
  let script =
    List.rev
      (snd
         (List.fold_left
            (fun (policy, acc) ev ->
              match ev with
              | Gen.Squery q -> (policy, `Query q :: acc)
              | Gen.Smutate ->
                  let policy' =
                    Gen.mutate_policy ~mode:`Mixed policy rand
                  in
                  (policy', `Set policy' :: acc))
            (policy0, []) raw_events))
  in
  let n_queries =
    List.length (List.filter (function `Query _ -> true | _ -> false) script)
  in
  let n_mutations = List.length script - n_queries in
  Printf.printf
    "churn: %d queries, %d policy mutations (pool %d, repeat %.2f)\n%!"
    n_queries n_mutations !pool_size !repeat_rate;
  let service () =
    Serve.Service.create ~policy:policy0 ~subjects:Gen.subjects
      ~tables:(tables ()) ~udfs:udf_impls ~deliver_to:Gen.user ()
  in
  (* sequential replay: submissions one at a time, so every mutation
     point falls exactly between the same two queries in each replay *)
  let replay set_policy =
    let s = service () in
    let responses =
      List.filter_map
        (function
          | `Query q -> Some (Serve.Service.submit s q)
          | `Set policy ->
              set_policy s policy;
              None)
        script
    in
    (responses, Serve.Service.stats s)
  in
  let (incremental, inc_stats), inc_ms =
    time_ms (fun () -> replay (fun s p -> Serve.Service.set_policy s p))
  in
  let (rotation, rot_stats), rot_ms =
    time_ms (fun () ->
        replay (fun s p -> Serve.Service.set_policy ~subjects:Gen.subjects s p))
  in
  (* oracle: a fresh cache-less service per query — full replan under
     the then-current policy *)
  let oracle, oracle_ms =
    time_ms (fun () ->
        List.rev
          (snd
             (List.fold_left
                (fun (policy, acc) ev ->
                  match ev with
                  | `Set policy' -> (policy', acc)
                  | `Query q ->
                      let s =
                        Serve.Service.create ~policy ~subjects:Gen.subjects
                          ~tables:(tables ()) ~udfs:udf_impls
                          ~deliver_to:Gen.user ()
                      in
                      (policy, (Serve.Service.submit s q).Serve.Service.outcome :: acc))
                (policy0, []) script)))
  in
  (* differential: all three replays agree at every stream position *)
  let divergences = ref 0 in
  let message_drift = ref 0 in
  let check i what a b =
    match (a, b) with
    | Serve.Service.Table x, Serve.Service.Table y ->
        if not (canonical_equal x y) then begin
          incr divergences;
          Printf.eprintf "DIVERGENCE at query %d (%s): result rows differ\n" i
            what
        end
    | Serve.Service.Rejected x, Serve.Service.Rejected y ->
        if not (String.equal x y) then incr message_drift
    | Serve.Service.Table _, Serve.Service.Rejected m ->
        incr divergences;
        Printf.eprintf "DIVERGENCE at query %d (%s): table vs rejection %s\n" i
          what m
    | Serve.Service.Rejected m, Serve.Service.Table _ ->
        incr divergences;
        Printf.eprintf "DIVERGENCE at query %d (%s): rejection %s vs table\n" i
          what m
    | Serve.Service.Expired _, _ | _, Serve.Service.Expired _ ->
        (* no deadlines anywhere in this bench *)
        incr divergences;
        Printf.eprintf "DIVERGENCE at query %d (%s): unexpected expiry\n" i what
  in
  List.iteri
    (fun i ((inc : Serve.Service.response), ((rot : Serve.Service.response), orc)) ->
      check i "incremental vs oracle" inc.Serve.Service.outcome orc;
      check i "rotation vs oracle" rot.Serve.Service.outcome orc)
    (List.combine incremental (List.combine rotation oracle));
  let ratio =
    float_of_int inc_stats.Serve.Service.hits
    /. float_of_int (max 1 rot_stats.Serve.Service.hits)
  in
  let meets_5x = ratio >= 5.0 in
  Printf.printf
    "incremental: %d hits / %d misses (%d retained, %d reverified, %d \
     invalidated) in %.0f ms\n"
    inc_stats.Serve.Service.hits inc_stats.Serve.Service.misses
    inc_stats.Serve.Service.retained inc_stats.Serve.Service.reverified
    inc_stats.Serve.Service.invalidated inc_ms;
  Printf.printf "rotation:    %d hits / %d misses in %.0f ms\n"
    rot_stats.Serve.Service.hits rot_stats.Serve.Service.misses rot_ms;
  Printf.printf
    "oracle:      %d full replans in %.0f ms\n" n_queries oracle_ms;
  Printf.printf
    "retained-hit ratio %.1fx (>=5x: %b), %d divergences, %d rejection \
     message drifts\n"
    ratio meets_5x !divergences !message_drift;
  let stats_obj (s : Serve.Service.stats) ms =
    Json.Obj
      [ ("hits", Json.Int s.Serve.Service.hits);
        ("misses", Json.Int s.Serve.Service.misses);
        ("rejections", Json.Int s.Serve.Service.rejections);
        ("invalidated", Json.Int s.Serve.Service.invalidated);
        ("reverified", Json.Int s.Serve.Service.reverified);
        ("retained", Json.Int s.Serve.Service.retained);
        ("plan_ms", Json.Float s.Serve.Service.plan_ms);
        ("wall_ms", Json.Float ms) ]
  in
  let doc =
    Json.Obj
      [ ("bench", Json.String "churn");
        ( "workload",
          Json.Obj
            [ ("events", Json.Int !events);
              ("queries", Json.Int n_queries);
              ("mutations", Json.Int n_mutations);
              ("pool", Json.Int !pool_size);
              ("repeat_rate", Json.Float !repeat_rate);
              ("mutation_rate", Json.Float !mutation_rate);
              ("seed", Json.Int !seed) ] );
        ("incremental", stats_obj inc_stats inc_ms);
        ("rotation", stats_obj rot_stats rot_ms);
        ("oracle_wall_ms", Json.Float oracle_ms);
        ("hit_ratio_vs_rotation", Json.Float ratio);
        ("meets_5x", Json.Bool meets_5x);
        ("divergences", Json.Int !divergences);
        ("rejected_message_drift", Json.Int !message_drift) ]
  in
  let oc = open_out !out in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "report: %s\n" !out;
  if !divergences > 0 then exit 2
