(* The query-serving layer and its verified plan cache. Four pillars:

   1. fingerprints — cache keys are collision-free (length-prefixed
      fields; the naive concatenation keys they replace demonstrably
      collided) and structural (node-id independent, so re-parsing a
      query re-finds its cache entry), and every planner input rotates
      the environment fingerprint;
   2. warm = cold — a cache hit returns a plan structurally identical
      to a cold planning round, and executing both yields
      byte-identical tables (TPC-H and random queries);
   3. invalidation — mutating a single permission (or the pricing,
      network or capability config) makes the next lookup a miss, the
      replanned plan re-passes the verifier, and stale entries are
      never served;
   4. concurrency — replaying a shuffled 200-query stream with
      interleaved policy mutations at 1 and 4 domains produces
      identical per-query responses and a deterministic final cache
      state. *)

open Relalg
open Authz

(* [Serve.Service.set_policy] of a policy that agrees with the loaded
   tables *)
let set_policy ?subjects ?tenant service policy =
  match Serve.Service.set_policy ?subjects ?tenant service policy with
  | Ok () -> ()
  | Error c -> Alcotest.fail (Serve.Service.conflict_message c)

let byte_identical a b =
  List.equal Attr.equal (Engine.Table.attrs a) (Engine.Table.attrs b)
  && List.equal
       (fun (r1 : Value.t array) r2 -> r1 = r2)
       (Engine.Table.rows a) (Engine.Table.rows b)

let outcome_equal a b =
  match (a, b) with
  | Serve.Service.Table x, Serve.Service.Table y -> byte_identical x y
  | Serve.Service.Rejected x, Serve.Service.Rejected y -> x = y
  | _ -> false

(* Order-insensitive table equality. An incrementally retained cache
   entry may carry a differently shaped (but equally verified) plan
   than a fresh replan would produce, and plan shape decides the
   arrival order of rows at a final grouping — the answer is the same
   multiset of rows. *)
let canonical_equal a b =
  List.equal Attr.equal (Engine.Table.attrs a) (Engine.Table.attrs b)
  && List.sort compare (Engine.Table.rows a)
     = List.sort compare (Engine.Table.rows b)

let outcome_canonical_equal a b =
  match (a, b) with
  | Serve.Service.Table x, Serve.Service.Table y -> canonical_equal x y
  | Serve.Service.Rejected x, Serve.Service.Rejected y -> x = y
  | _ -> false

(* --- LRU -------------------------------------------------------------- *)

let test_lru_bounds () =
  let c = Serve.Lru.create ~capacity:3 in
  List.iter (fun k -> Serve.Lru.add c k (int_of_string k)) [ "1"; "2"; "3" ];
  Alcotest.(check (list string)) "MRU order" [ "3"; "2"; "1" ]
    (Serve.Lru.keys c);
  (* touching 1 promotes it, so adding a 4th evicts 2 *)
  Alcotest.(check (option int)) "hit refreshes" (Some 1)
    (Serve.Lru.find c "1");
  Serve.Lru.add c "4" 4;
  Alcotest.(check (list string)) "LRU evicted" [ "4"; "1"; "3" ]
    (Serve.Lru.keys c);
  Alcotest.(check (option int)) "evicted entry gone" None
    (Serve.Lru.find c "2");
  (* replacement neither grows the cache nor counts as an insertion *)
  Serve.Lru.add c "4" 44;
  Alcotest.(check int) "replace keeps length" 3 (Serve.Lru.length c);
  let s = Serve.Lru.stats c in
  Alcotest.(check int) "hits" 1 s.Serve.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Serve.Lru.misses;
  Alcotest.(check int) "insertions" 4 s.Serve.Lru.insertions;
  Alcotest.(check int) "evictions" 1 s.Serve.Lru.evictions;
  Alcotest.(check bool) "mem is pure" true (Serve.Lru.mem c "3");
  Alcotest.(check (list string)) "mem did not promote" [ "4"; "1"; "3" ]
    (Serve.Lru.keys c)

(* The intrusive-recency-list implementation must be observationally
   identical — keys order, membership, every statistic — to the obvious
   stamp-based reference model, across random op sequences that hold
   the cache at capacity (the regime the O(1) eviction exists for),
   including remap migrations (drop / rebind / rekey), whose contract
   is to preserve recency order, pure peeks (no recency refresh, no
   statistics) and clears (statistics kept). *)
let test_lru_model_differential () =
  let module Ref = struct
    (* the old O(n) implementation, reduced to its observable core *)
    type 'a t = {
      cap : int;
      mutable entries : (string * ('a * int)) list;
      mutable clock : int;
      mutable hits : int;
      mutable misses : int;
      mutable insertions : int;
      mutable evictions : int;
    }

    let create cap =
      { cap; entries = []; clock = 0; hits = 0; misses = 0; insertions = 0;
        evictions = 0 }

    let tick t =
      t.clock <- t.clock + 1;
      t.clock

    let find t k =
      match List.assoc_opt k t.entries with
      | Some (v, _) ->
          t.hits <- t.hits + 1;
          t.entries <-
            (k, (v, tick t)) :: List.remove_assoc k t.entries;
          Some v
      | None ->
          t.misses <- t.misses + 1;
          None

    let add t k v =
      if List.mem_assoc k t.entries then
        t.entries <- (k, (v, tick t)) :: List.remove_assoc k t.entries
      else begin
        t.insertions <- t.insertions + 1;
        t.entries <- (k, (v, tick t)) :: t.entries;
        if List.length t.entries > t.cap then begin
          let victim, _ =
            List.fold_left
              (fun (bk, bs) (k, (_, s)) ->
                if s < bs then (k, s) else (bk, bs))
              ("", max_int) t.entries
          in
          t.entries <- List.remove_assoc victim t.entries;
          t.evictions <- t.evictions + 1
        end
      end

    let remap t f =
      let dropped = ref 0 in
      t.entries <-
        List.filter_map
          (fun (k, (v, s)) ->
            match f k v with
            | None ->
                incr dropped;
                None
            | Some (k', v') -> Some (k', (v', s)))
          (List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a) t.entries);
      !dropped

    let keys t =
      List.map fst
        (List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a) t.entries)

    let peek t k = Option.map fst (List.assoc_opt k t.entries)
    let clear t = t.entries <- []
  end in
  let rng = Mpq_crypto.Prng.create 7L in
  let key () = string_of_int (Mpq_crypto.Prng.int rng 12) in
  let lru = Serve.Lru.create ~capacity:4 and model = Ref.create 4 in
  let agree step =
    Alcotest.(check (list string))
      (Printf.sprintf "keys agree after step %d" step)
      (Ref.keys model) (Serve.Lru.keys lru);
    let s = Serve.Lru.stats lru in
    Alcotest.(check (list int))
      (Printf.sprintf "stats agree after step %d" step)
      [ model.Ref.hits; model.Ref.misses; model.Ref.insertions;
        model.Ref.evictions ]
      [ s.Serve.Lru.hits; s.Serve.Lru.misses; s.Serve.Lru.insertions;
        s.Serve.Lru.evictions ]
  in
  for step = 1 to 600 do
    (match Mpq_crypto.Prng.int rng 21 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 ->
        let k = key () in
        Serve.Lru.add lru k step;
        Ref.add model k step
    | 8 | 9 | 10 | 11 | 12 | 13 | 14 | 15 ->
        let k = key () in
        Alcotest.(check (option int)) "find agrees" (Ref.find model k)
          (Serve.Lru.find lru k)
    | 16 ->
        let k = key () in
        Alcotest.(check bool) "mem agrees"
          (List.mem_assoc k model.Ref.entries)
          (Serve.Lru.mem lru k)
    | 17 ->
        let k = key () in
        Alcotest.(check (option int)) "peek agrees" (Ref.peek model k)
          (Serve.Lru.peek lru k)
    | 20 ->
        Ref.clear model;
        Serve.Lru.clear lru;
        Alcotest.(check int) "clear empties" 0 (Serve.Lru.length lru)
    | _ ->
        (* a migration pass: drop ~1/4, rekey ~1/4, rewrite the rest in
           place — recency order must survive on both sides *)
        let f k v =
          match (Hashtbl.hash k + step) mod 4 with
          | 0 -> None
          | 1 -> Some ("r" ^ string_of_int step ^ "." ^ k, v + 1)
          | _ -> Some (k, v + 1)
        in
        Alcotest.(check int) "remap drop count agrees" (Ref.remap model f)
          (Serve.Lru.remap lru f));
    agree step
  done;
  (* a rekeyed cache keeps evicting correctly at capacity *)
  List.iter
    (fun k ->
      Serve.Lru.add lru k 0;
      Ref.add model k 0)
    [ "a"; "b"; "c"; "d"; "e"; "f" ];
  agree 601

(* --- fingerprints ----------------------------------------------------- *)

let test_plan_fingerprint_no_set_collision () =
  (* {ab} vs {a,b}: naive set concatenation renders both as "ab" *)
  let schema =
    Schema.make ~name:"R" ~owner:"O"
      [ ("a", Schema.Tint); ("b", Schema.Tint); ("ab", Schema.Tint) ]
  in
  let proj names =
    Planner.Fingerprint.of_plan
      (Plan.project (Attr.Set.of_names names) (Plan.base schema))
  in
  Alcotest.(check bool) "{ab} vs {a,b}" false (proj [ "ab" ] = proj [ "a"; "b" ])

let test_plan_fingerprint_structural () =
  (* fresh node ids must not show: two builds of the same TPC-H query
     fingerprint identically, two different queries differently *)
  let q5 = Planner.Fingerprint.of_plan (Tpch.Tpch_queries.query 5) in
  let q5' = Planner.Fingerprint.of_plan (Tpch.Tpch_queries.query 5) in
  let q3 = Planner.Fingerprint.of_plan (Tpch.Tpch_queries.query 3) in
  Alcotest.(check string) "rebuild is stable" q5 q5';
  Alcotest.(check bool) "distinct queries distinct" false (q5 = q3);
  (* and equal fingerprints track equal shapes *)
  Alcotest.(check bool) "equal_shape agrees" true
    (Plan.equal_shape (Tpch.Tpch_queries.query 5) (Tpch.Tpch_queries.query 5))

let example_env () = Policy_dsl.parse Policy_dsl.example

let test_environment_sensitivity () =
  let env = example_env () in
  let base ?(policy = env.Policy_dsl.policy)
      ?(subjects = env.Policy_dsl.subjects) ?config ?pricing ?network
      ?deliver_to ?max_latency () =
    Planner.Optimizer.environment_fingerprint ~policy ~subjects ?config
      ?pricing ?network ?deliver_to ?max_latency ()
  in
  let reference = base () in
  let mutated_policy =
    (* one permission revoked: Y loses plaintext P on Ins *)
    (Policy_dsl.parse
       (Str.global_replace
          (Str.regexp_string "authorize Ins to Y plain P enc C")
          "authorize Ins to Y enc C" Policy_dsl.example))
      .Policy_dsl.policy
  in
  let checks =
    [ ("policy permission", base ~policy:mutated_policy ());
      ("subject set",
       base ~subjects:(List.tl env.Policy_dsl.subjects) ());
      ("config", base ~config:Opreq.strict ());
      ("pricing",
       base ~pricing:(Planner.Pricing.make ~user_factor:12.0 ()) ());
      ("network",
       base ~network:(Planner.Network.make ~client_mbps:10.0 ()) ());
      ("deliver_to",
       base ~deliver_to:(List.hd env.Policy_dsl.subjects) ());
      ("max_latency", base ~max_latency:1.5 ()) ]
  in
  List.iter
    (fun (what, fp) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rotates the fingerprint" what)
        false (fp = reference))
    checks;
  Alcotest.(check string) "recomputation is stable" reference (base ())

(* --- service fixtures ------------------------------------------------- *)

let demo_tables (env : Policy_dsl.t) =
  let find name =
    List.find (fun s -> s.Schema.name = name) env.Policy_dsl.schemas
  in
  let s x = Value.Str x and n x = Value.Int x in
  let v = Value.date_of_string in
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

let example_service ?pool ?cache_capacity ?max_batch ?policy () =
  let env = example_env () in
  Serve.Service.create ?pool ?cache_capacity ?max_batch
    ~policy:(Option.value ~default:env.Policy_dsl.policy policy)
    ~subjects:env.Policy_dsl.subjects ~tables:(demo_tables env) ()

let running_query =
  "select T, avg(P) from Hosp join Ins on S=C where D='stroke' \
   group by T having P>100"

(* random-catalog tables, deterministic rows *)
let gen_catalog_tables () =
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

let gen_service ?pool ?sharing policy =
  Serve.Service.create ?pool ?sharing ~policy ~subjects:Gen.subjects
    ~tables:(gen_catalog_tables ()) ~udfs:udf_impls ~deliver_to:Gen.user ()

let tpch_service ~sf ~tables ?pool ?sharing ?max_batch sc =
  Serve.Service.create ?pool ?sharing ?max_batch
    ~policy:(Tpch.Scenarios.policy sc) ~subjects:Tpch.Scenarios.subjects
    ~pricing:Tpch.Scenarios.pricing ~base:(Tpch.Tpch_schema.base_stats ~sf)
    ~deliver_to:Tpch.Scenarios.user ~udfs:Tpch.Tpch_queries.udf_impls ~tables ()

let tpch_tables sf =
  let data = Tpch.Tpch_data.generate ~sf () in
  List.map
    (fun (s : Schema.t) ->
      (s.Schema.name, Engine.Table.of_schema s (List.assoc s.Schema.name data)))
    Tpch.Tpch_schema.all

(* --- warm = cold ------------------------------------------------------ *)

(* A warm hit must return a plan structurally identical to what cold
   planning produces, and executing both must coincide byte for byte.
   The warm submission rebuilds the query (fresh node ids), so this
   also pins the structural nature of the key. *)
let test_tpch_warm_equals_cold () =
  let sf = 0.0005 in
  let tables = tpch_tables sf in
  List.iter
    (fun sc ->
      let service = tpch_service ~sf ~tables sc in
      List.iter
        (fun q ->
          let label fmt =
            Printf.sprintf "q%d %s %s" q (Tpch.Scenarios.name sc) fmt
          in
          let cold = Serve.Service.submit service (Tpch.Tpch_queries.query q) in
          let warm = Serve.Service.submit service (Tpch.Tpch_queries.query q) in
          Alcotest.(check bool) (label "cold is a miss") true
            (cold.Serve.Service.status = Serve.Service.Miss);
          Alcotest.(check bool) (label "warm is a hit") true
            (warm.Serve.Service.status = Serve.Service.Hit);
          Alcotest.(check string) (label "same key") cold.Serve.Service.key
            warm.Serve.Service.key;
          let plan_of (r : Serve.Service.response) =
            (Option.get r.Serve.Service.planned)
              .Planner.Optimizer.extended.Extend.plan
          in
          (* the cached plan against an independent cold planning round *)
          let fresh =
            Planner.Optimizer.plan ~policy:(Tpch.Scenarios.policy sc)
              ~subjects:Tpch.Scenarios.subjects ~pricing:Tpch.Scenarios.pricing
              ~base:(Tpch.Tpch_schema.base_stats ~sf)
              ~deliver_to:Tpch.Scenarios.user (Tpch.Tpch_queries.query q)
          in
          Alcotest.(check bool) (label "warm plan = cold plan (structure)")
            true
            (Plan.equal_shape (plan_of warm) (plan_of cold));
          Alcotest.(check bool) (label "warm plan = fresh replan (structure)")
            true
            (Plan.equal_shape (plan_of warm)
               fresh.Planner.Optimizer.extended.Extend.plan);
          match (cold.Serve.Service.outcome, warm.Serve.Service.outcome) with
          | Serve.Service.Table a, Serve.Service.Table b ->
              Alcotest.(check bool) (label "results byte-identical") true
                (byte_identical a b)
          | _ -> Alcotest.fail (label "expected executed tables"))
        [ 1; 3; 5; 10 ])
    Tpch.Scenarios.all

let prop_warm_equals_cold =
  QCheck.Test.make ~count:40
    ~name:"warm hit = cold plan (structure and bytes) on random queries"
    Gen.arbitrary_plan_policy
    (fun (plan, policy) ->
      let service = gen_service policy in
      let cold = Serve.Service.submit service plan in
      let warm = Serve.Service.submit service plan in
      if cold.Serve.Service.status <> Serve.Service.Miss then
        QCheck.Test.fail_report "first submission was not a miss";
      if warm.Serve.Service.status <> Serve.Service.Hit then
        QCheck.Test.fail_report "second submission was not a hit";
      if not (outcome_equal cold.Serve.Service.outcome warm.Serve.Service.outcome)
      then QCheck.Test.fail_report "warm outcome differs from cold";
      (match warm.Serve.Service.planned with
      | None -> ()
      | Some r ->
          (* the entry the cache served still satisfies the verifier *)
          let diags =
            Verify.Verifier.run
              { Verify.Verifier.policy;
                config = r.Planner.Optimizer.config;
                extended = r.Planner.Optimizer.extended;
                clusters = r.Planner.Optimizer.clusters;
                requests = r.Planner.Optimizer.requests }
          in
          if not (Verify.Verifier.ok diags) then
            QCheck.Test.fail_reportf "cached plan fails verification:\n%s"
              (Verify.Diag.render diags);
          (* and equals an independent replanning round structurally *)
          let fresh =
            Planner.Optimizer.plan ~policy ~subjects:Gen.subjects
              ~deliver_to:Gen.user plan
          in
          if
            not
              (Plan.equal_shape r.Planner.Optimizer.extended.Extend.plan
                 fresh.Planner.Optimizer.extended.Extend.plan)
          then QCheck.Test.fail_report "cached plan differs from fresh replan");
      true)

(* --- invalidation ----------------------------------------------------- *)

let test_policy_invalidation () =
  let original = example_env () in
  let revoked =
    (* a single permission revoked: Y loses plaintext P on Ins *)
    Policy_dsl.parse
      (Str.global_replace
         (Str.regexp_string "authorize Ins to Y plain P enc C")
         "authorize Ins to Y enc C" Policy_dsl.example)
  in
  let granted =
    (* a brand-new subject: its facts can be in no dependency set *)
    Policy_dsl.parse
      (Str.global_replace
         (Str.regexp_string "authorize Hosp to H")
         "provider W\nauthorize Hosp to W enc D\nauthorize Hosp to H"
         Policy_dsl.example)
  in
  (* what a cache-less full replan answers under [policy] *)
  let fresh_outcome policy =
    let s = example_service ~policy () in
    (Serve.Service.submit_sql s running_query).Serve.Service.outcome
  in
  let service = example_service () in
  let r1 = Serve.Service.submit_sql service running_query in
  let r1' = Serve.Service.submit_sql service running_query in
  Alcotest.(check bool) "warmed up" true
    (r1'.Serve.Service.status = Serve.Service.Hit);
  (* the entry's dependency set contains the fact the revocation below
     removes — that is what makes the drop mandatory *)
  (match r1.Serve.Service.planned with
  | None -> Alcotest.fail "running query should be plannable"
  | Some r ->
      let deps =
        Analysis.Deps.of_extended
          ~deliver_to:(List.find
                         (fun s -> s.Subject.role = Subject.User)
                         original.Policy_dsl.subjects)
          ~extended:r.Planner.Optimizer.extended
          ~clusters:r.Planner.Optimizer.clusters ()
      in
      Alcotest.(check bool) "revoked fact is a dependency" true
        (Analysis.Fact.Set.mem
           { Analysis.Fact.subject = Subject.provider "Y";
             attr = Attr.make "P"; level = Analysis.Fact.Plain }
           deps));
  (* 1 — a disjoint delta: the entry survives, rekeyed, and keeps
     hitting with the very same plan (hence raw byte equality) *)
  let env_before = Serve.Service.environment service in
  set_policy service granted.Policy_dsl.policy;
  Alcotest.(check bool) "policy change rotates the environment" false
    (Serve.Service.environment service = env_before);
  let ra = Serve.Service.submit_sql service running_query in
  Alcotest.(check bool) "disjoint delta keeps the entry live" true
    (ra.Serve.Service.status = Serve.Service.Hit);
  Alcotest.(check bool) "rekeyed under the new environment" false
    (ra.Serve.Service.key = r1.Serve.Service.key);
  Alcotest.(check bool) "same plan, same bytes" true
    (outcome_equal r1.Serve.Service.outcome ra.Serve.Service.outcome);
  (* 2 — revoking a fact the plan depends on drops the entry: miss,
     full replan, and the replanned entry re-passes the verifier *)
  set_policy service revoked.Policy_dsl.policy;
  let r2 = Serve.Service.submit_sql service running_query in
  Alcotest.(check bool) "dependent revocation forces a miss" true
    (r2.Serve.Service.status = Serve.Service.Miss);
  Alcotest.(check bool) "new key" false
    (r2.Serve.Service.key = r1.Serve.Service.key);
  Alcotest.(check bool) "dropped, not stranded" false
    (List.mem ra.Serve.Service.key (Serve.Service.cache_keys service));
  Alcotest.(check bool) "replan equals a cache-less service" true
    (outcome_equal r2.Serve.Service.outcome
       (fresh_outcome revoked.Policy_dsl.policy));
  (match r2.Serve.Service.planned with
  | None -> Alcotest.fail "query should still be plannable after revocation"
  | Some r ->
      let diags =
        Verify.Verifier.run
          { Verify.Verifier.policy = revoked.Policy_dsl.policy;
            config = r.Planner.Optimizer.config;
            extended = r.Planner.Optimizer.extended;
            clusters = r.Planner.Optimizer.clusters;
            requests = r.Planner.Optimizer.requests }
      in
      Alcotest.(check bool) "replanned entry passes the verifier" true
        (Verify.Verifier.ok diags));
  (* 3 — restoring the policy is a grant-only delta: the resident
     (revocation-era) entry is re-certified by an incremental verifier
     pass and keeps serving — no replanning, answers canonically equal
     to both the original response and a cache-less replan *)
  set_policy service original.Policy_dsl.policy;
  let r3 = Serve.Service.submit_sql service running_query in
  Alcotest.(check bool) "grant-only delta retains the entry" true
    (r3.Serve.Service.status = Serve.Service.Hit);
  Alcotest.(check bool) "answer canonically unchanged" true
    (outcome_canonical_equal r1.Serve.Service.outcome r3.Serve.Service.outcome);
  Alcotest.(check bool) "canonically equal to a cache-less replan" true
    (outcome_canonical_equal r3.Serve.Service.outcome
       (fresh_outcome original.Policy_dsl.policy));
  let s = Serve.Service.stats service in
  Alcotest.(check bool) "migration accounting" true
    (s.Serve.Service.invalidated >= 1 && s.Serve.Service.retained >= 1)

let test_config_invalidation () =
  let service = example_service () in
  let warm () = Serve.Service.submit_sql service running_query in
  ignore (warm ());
  Alcotest.(check bool) "warm" true
    ((warm ()).Serve.Service.status = Serve.Service.Hit);
  (* pricing change: replanned, and replanning is real — the costed
     plan may genuinely change, so the entry must re-verify *)
  Serve.Service.set_pricing service
    (Planner.Pricing.make ~provider_multipliers:[ ("X", 0.1) ] ());
  let after_pricing = warm () in
  Alcotest.(check bool) "pricing change invalidates" true
    (after_pricing.Serve.Service.status = Serve.Service.Miss);
  Alcotest.(check bool) "pricing replan warm again" true
    ((warm ()).Serve.Service.status = Serve.Service.Hit);
  (* network change *)
  Serve.Service.set_network service (Planner.Network.make ~client_mbps:1.0 ());
  Alcotest.(check bool) "network change invalidates" true
    ((warm ()).Serve.Service.status = Serve.Service.Miss);
  (* capability config change: strict forbids all computation over
     ciphertext; the running example is still plannable *)
  Serve.Service.set_config service Opreq.strict;
  let after_config = warm () in
  Alcotest.(check bool) "config change invalidates" true
    (after_config.Serve.Service.status = Serve.Service.Miss);
  match after_config.Serve.Service.outcome with
  | Serve.Service.Table _ -> ()
  | Serve.Service.Rejected msg ->
      Alcotest.failf "strict config unexpectedly rejects: %s" msg
  | Serve.Service.Expired why ->
      Alcotest.failf "no deadline was set, yet expired: %s" why

(* Concretize a stream's mutations (mixed grants and revokes) once, so
   every replay sees the same policy at the same position. *)
let concretize policy0 events rand =
  List.rev
    (snd
       (List.fold_left
          (fun (policy, acc) -> function
            | Gen.Squery q -> (policy, `Query q :: acc)
            | Gen.Smutate ->
                let policy' = Gen.mutate_policy ~mode:`Mixed policy rand in
                (policy', `Set policy' :: acc))
          (policy0, []) events))

(* A 500-event grant/revoke stream over a policy granting everything,
   replayed by incremental [set_policy], by rotation ([~subjects]: new
   fingerprint, nothing migrates) and by a fresh service per query.
   Tables agree as row multisets ([canonical_equal]); a retained denial
   may cite another first cause, so rejections agree as verdicts. *)
let test_churn_vs_replan () =
  let rule sch s =
    Authorization.rule ~rel:sch.Schema.name
      ~plain:(List.map Attr.name (Schema.attr_list sch)) (To s)
  in
  let generous =
    Authorization.make ~schemas:Gen.schemas
      (List.concat_map (fun sch -> List.map (rule sch) Gen.subjects) Gen.schemas)
  in
  let rand = Random.State.make [| 0xC0FFEE |] in
  let plan_pool = Array.init 12 (fun _ -> Gen.gen_plan rand) in
  let script =
    concretize generous
      (Gen.gen_stream ~repeat_rate:0.75 ~mutation_rate:0.45 ~pool:plan_pool
         500 rand)
      rand
  in
  let replay set_policy serve =
    let s = gen_service generous and policy = ref generous in
    let outcomes =
      List.filter_map
        (function
          | `Query q -> Some (serve s !policy q).Serve.Service.outcome
          | `Set p -> set_policy s p; policy := p; None)
        script
    in
    (outcomes, Serve.Service.stats s)
  in
  let cached s _ q = Serve.Service.submit s q in
  let inc, is = replay (fun s p -> set_policy s p) cached in
  let rot, rs =
    replay (fun s p -> set_policy ~subjects:Gen.subjects s p) cached
  in
  let oracle, _ =
    replay (fun _ _ -> ()) (fun _ p q -> Serve.Service.submit (gen_service p) q)
  in
  let agree a b =
    match (a, b) with
    | Serve.Service.Table x, Serve.Service.Table y -> canonical_equal x y
    | Serve.Service.Rejected _, Serve.Service.Rejected _ -> true
    | _ -> false
  in
  let agreeing xs = List.length (List.filter Fun.id (List.map2 agree xs oracle)) in
  Alcotest.(check (list int))
    "queries, then those agreeing with the replan (incremental, rotation)"
    [ 278; 278; 278 ] [ List.length oracle; agreeing inc; agreeing rot ];
  Alcotest.(check (list int))
    "hits, misses, retained, reverified, invalidated; rotation hits, misses"
    [ 242; 36; 2142; 0; 24; 35; 243 ]
    Serve.Service.
      [ is.hits; is.misses; is.retained; is.reverified; is.invalidated;
        rs.hits; rs.misses ]

(* --- concurrency ------------------------------------------------------ *)

(* Replay the same stream — queries with verbatim repeats, interleaved
   policy mutations — through two services that differ only in the
   domain pool, and require identical responses (statuses, bytes) and
   an identical final cache state. Batches exercise the admission
   bound: 200 events at max_batch 16 force many rounds. *)
let test_stream_determinism () =
  let rand = Random.State.make [| 0xC0FFEE |] in
  let plan_pool =
    Array.init 12 (fun _ -> Gen.gen_plan rand)
  in
  let policy0 = Gen.gen_policy rand in
  let events =
    Gen.gen_stream ~repeat_rate:0.6 ~mutation_rate:0.05 ~pool:plan_pool 200
      rand
  in
  let script = concretize policy0 events rand in
  let queries =
    List.length
      (List.filter (function `Query _ -> true | _ -> false) script)
  in
  let replay pool =
    let service =
      gen_service ?pool policy0
    in
    let flush batch acc =
      match batch with
      | [] -> acc
      | qs -> acc @ Serve.Service.submit_batch service (List.rev qs)
    in
    let responses, pending =
      List.fold_left
        (fun (acc, batch) ev ->
          match ev with
          | `Query q -> (acc, q :: batch)
          | `Set policy ->
              let acc = flush batch acc in
              set_policy service policy;
              (acc, []))
        ([], []) script
    in
    let responses = flush pending responses in
    (responses, Serve.Service.cache_keys service, Serve.Service.stats service)
  in
  let seq, seq_keys, seq_stats = replay None in
  let pool = Par.create ~name:"serve-test" 4 in
  let par, par_keys, par_stats =
    Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
    replay (Some pool)
  in
  Alcotest.(check int) "every query answered" queries (List.length seq);
  Alcotest.(check int) "same response count" (List.length seq)
    (List.length par);
  List.iteri
    (fun i ((a : Serve.Service.response), (b : Serve.Service.response)) ->
      Alcotest.(check bool)
        (Printf.sprintf "response %d: same status" i)
        true
        (a.Serve.Service.status = b.Serve.Service.status);
      Alcotest.(check string)
        (Printf.sprintf "response %d: same key" i)
        a.Serve.Service.key b.Serve.Service.key;
      Alcotest.(check bool)
        (Printf.sprintf "response %d: same bytes" i)
        true
        (outcome_equal a.Serve.Service.outcome b.Serve.Service.outcome))
    (List.combine seq par);
  Alcotest.(check (list string)) "deterministic final cache state" seq_keys
    par_keys;
  Alcotest.(check int) "same hits" seq_stats.Serve.Service.hits
    par_stats.Serve.Service.hits;
  Alcotest.(check int) "same misses" seq_stats.Serve.Service.misses
    par_stats.Serve.Service.misses;
  Alcotest.(check int) "same evictions" seq_stats.Serve.Service.evictions
    par_stats.Serve.Service.evictions

(* a small-capacity cache under the same differential: evictions on the
   hot path must be deterministic too *)
let test_eviction_determinism () =
  let rand = Random.State.make [| 42 |] in
  let plan_pool = Array.init 10 (fun _ -> Gen.gen_plan rand) in
  let policy = Gen.gen_policy rand in
  let events =
    Gen.gen_stream ~repeat_rate:0.5 ~pool:plan_pool 120 rand
  in
  let queries =
    List.filter_map (function Gen.Squery q -> Some q | Gen.Smutate -> None)
      events
  in
  let replay pool =
    let service =
      Serve.Service.create ?pool ~cache_capacity:4 ~max_batch:8 ~policy
        ~subjects:Gen.subjects ~tables:(gen_catalog_tables ())
        ~udfs:udf_impls ~deliver_to:Gen.user ()
    in
    let responses = Serve.Service.submit_batch service queries in
    (responses, Serve.Service.cache_keys service, Serve.Service.stats service)
  in
  let seq, seq_keys, seq_stats = replay None in
  let pool = Par.create ~name:"serve-evict" 4 in
  let par, par_keys, par_stats =
    Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
    replay (Some pool)
  in
  Alcotest.(check bool) "evictions actually happened" true
    (seq_stats.Serve.Service.evictions > 0);
  Alcotest.(check int) "cache bounded" 4
    (List.length seq_keys);
  Alcotest.(check (list string)) "same final keys" seq_keys par_keys;
  Alcotest.(check int) "same evictions" seq_stats.Serve.Service.evictions
    par_stats.Serve.Service.evictions;
  List.iteri
    (fun i ((a : Serve.Service.response), (b : Serve.Service.response)) ->
      Alcotest.(check bool)
        (Printf.sprintf "response %d equal" i)
        true
        (a.Serve.Service.status = b.Serve.Service.status
        && outcome_equal a.Serve.Service.outcome b.Serve.Service.outcome))
    (List.combine seq par)

(* batching is an implementation detail: one-by-one submission and any
   batch split produce the same responses and cache evolution *)
let test_batching_transparent () =
  let rand = Random.State.make [| 7; 11 |] in
  let plan_pool = Array.init 8 (fun _ -> Gen.gen_plan rand) in
  let policy = Gen.gen_policy rand in
  let events = Gen.gen_stream ~repeat_rate:0.5 ~pool:plan_pool 60 rand in
  let queries =
    List.filter_map (function Gen.Squery q -> Some q | Gen.Smutate -> None)
      events
  in
  let one_by_one =
    let service = gen_service policy in
    ( List.map (Serve.Service.submit service) queries,
      Serve.Service.cache_keys service )
  in
  let batched =
    let service = gen_service policy in
    (Serve.Service.submit_batch service queries,
     Serve.Service.cache_keys service)
  in
  List.iteri
    (fun i ((a : Serve.Service.response), (b : Serve.Service.response)) ->
      Alcotest.(check bool)
        (Printf.sprintf "query %d: same status and bytes" i)
        true
        (a.Serve.Service.status = b.Serve.Service.status
        && outcome_equal a.Serve.Service.outcome b.Serve.Service.outcome))
    (List.combine (fst one_by_one) (fst batched));
  Alcotest.(check (list string)) "same cache evolution" (snd one_by_one)
    (snd batched)

(* --- multi-query sharing ---------------------------------------------- *)

let par_jobs =
  match Sys.getenv_opt "MPQ_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

let arbitrary_batch_policy =
  QCheck.make
    ~print:(fun (qs, _) ->
      String.concat "\n--- next query ---\n" (List.map Plan_printer.to_ascii qs))
    QCheck.Gen.(pair (Gen.gen_batch ~overlap:0.8 6) Gen.gen_policy)

(* The tentpole differential: a batch served with multi-query sharing
   (plan DAG, batch grouping, sub-plan result memoization) must be
   indistinguishable — statuses, cache keys, result bytes, final plan
   cache — from the isolated baseline ([~sharing:false]) and from a
   fresh cache-less service per query; and the whole sharing tier must
   evolve identically at 1 and [MPQ_JOBS] domains, sub-plan cache
   contents included. *)
let prop_sharing_vs_isolated =
  QCheck.Test.make ~count:8
    ~name:
      "sharing differential: batch = isolated baseline = fresh oracle, 1 vs N \
       domains"
    arbitrary_batch_policy
    (fun (batch, policy) ->
      let serve ?pool ?sharing () =
        let service = gen_service ?pool ?sharing policy in
        (Serve.Service.submit_batch service batch, service)
      in
      let rs, shared = serve () in
      let ri, isolated = serve ~sharing:false () in
      List.iteri
        (fun i ((a : Serve.Service.response), (b : Serve.Service.response)) ->
          if a.Serve.Service.status <> b.Serve.Service.status then
            QCheck.Test.fail_reportf "query %d: status diverges from isolated" i;
          if a.Serve.Service.key <> b.Serve.Service.key then
            QCheck.Test.fail_reportf "query %d: key diverges from isolated" i;
          if
            not (outcome_equal a.Serve.Service.outcome b.Serve.Service.outcome)
          then
            QCheck.Test.fail_reportf "query %d: bytes diverge from isolated" i)
        (List.combine rs ri);
      if Serve.Service.cache_keys shared <> Serve.Service.cache_keys isolated
      then QCheck.Test.fail_report "plan-cache evolution diverges from isolated";
      if Serve.Service.subcache_keys isolated <> [] then
        QCheck.Test.fail_report "isolated service stored sub-plan results";
      (* every response equals a fresh, cache-less, sharing-free service *)
      List.iteri
        (fun i (q, (r : Serve.Service.response)) ->
          let fresh = gen_service ~sharing:false policy in
          let f = Serve.Service.submit fresh q in
          if not (outcome_equal f.Serve.Service.outcome r.Serve.Service.outcome)
          then
            QCheck.Test.fail_reportf "query %d: bytes diverge from fresh oracle"
              i)
        (List.combine batch rs);
      (* and the rounds are job-count independent, sub-plan tier included *)
      let pool = Par.create ~name:"serve-sharing" par_jobs in
      let rp, par =
        Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
        serve ~pool ()
      in
      List.iteri
        (fun i ((a : Serve.Service.response), (b : Serve.Service.response)) ->
          if
            a.Serve.Service.status <> b.Serve.Service.status
            || a.Serve.Service.key <> b.Serve.Service.key
            || not
                 (outcome_equal a.Serve.Service.outcome b.Serve.Service.outcome)
          then QCheck.Test.fail_reportf "query %d: parallel replay diverges" i)
        (List.combine rs rp);
      if Serve.Service.cache_keys shared <> Serve.Service.cache_keys par then
        QCheck.Test.fail_report "parallel plan-cache state diverges";
      if Serve.Service.subcache_keys shared <> Serve.Service.subcache_keys par
      then QCheck.Test.fail_report "parallel sub-plan cache state diverges";
      let s1 = Serve.Service.stats shared and sn = Serve.Service.stats par in
      if
        s1.Serve.Service.subplan_hits <> sn.Serve.Service.subplan_hits
        || s1.Serve.Service.subplan_stores <> sn.Serve.Service.subplan_stores
        || s1.Serve.Service.shared_execs <> sn.Serve.Service.shared_execs
      then QCheck.Test.fail_report "sub-plan statistics diverge across job counts";
      true)

(* TPC-H sharing, pinned: q1, 3, 5, 10 under UA as a duplicate-heavy
   stream in batches of 16 equal a fresh isolated service per event,
   with exact counters at 1 and [MPQ_JOBS] domains. That sharing pays is
   asserted by its cause, not by a timing ratio. *)
let test_tpch_sharing_pinned () =
  let sf = 0.001 and stream =
    List.filter_map
      (function Gen.Squery q -> Some (Tpch.Tpch_queries.query q) | Gen.Smutate -> None)
      (Gen.gen_stream ~repeat_rate:0.7 ~pool:[| 1; 3; 5; 10 |] 24
         (Random.State.make [| 0x3c0; 24 |]))
  in
  let tables = tpch_tables sf in
  let service ?pool ?sharing () =
    tpch_service ~sf ~tables ?pool ?sharing ~max_batch:16 Tpch.Scenarios.UA
  in
  let outcome (r : Serve.Service.response) = r.Serve.Service.outcome in
  let isolated =
    List.map (fun q -> outcome (Serve.Service.submit (service ~sharing:false ()) q)) stream
  in
  let run ?pool jobs =
    let s = service ?pool () in
    Alcotest.(check (list bool)) "every event: shared bytes = isolated"
      (List.map (fun _ -> true) stream)
      (List.map2 (fun r o -> outcome_equal (outcome r) o)
         (Serve.Service.submit_batch s stream) isolated);
    let st = Serve.Service.stats s and d = Serve.Service.dag_stats s in
    Alcotest.(check bool) "fewer plannings than events" true
      (st.Serve.Service.misses < 24);
    (* hits, misses, sub-plan hits and stores, shared execs, DAG nodes,
       shared occurrences *)
    Alcotest.(check (list int)) (Printf.sprintf "counters at %d jobs" jobs)
      [ 20; 4; 5; 9; 17; 46; 9 ]
      Serve.Service.
        [ st.hits; st.misses; st.subplan_hits; st.subplan_stores;
          st.shared_execs; d.Planner.Dag.nodes;
          d.Planner.Dag.shared_occurrences ]
  in
  run 1;
  let pool = Par.create ~name:"serve-tpch-sharing" par_jobs in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
  run ~pool par_jobs

(* The 66 served TPC-H queries (22 under each scenario, one tenant per
   scenario, sharing on) read the same bytes on a 4-domain pool as on
   one domain: each domain executes with its own operator scratch, and
   no index view leaves the executor into a shared sub-plan result. *)
let test_tpch_pool_equals_one_domain () =
  let sf = 0.001 in
  let tables = tpch_tables sf in
  let requests =
    List.concat_map
      (fun sc ->
        List.map
          (fun (q, _, _) ->
            Serve.Service.request ~tenant:(Tpch.Scenarios.name sc) (Tpch.Tpch_queries.query q))
          Tpch.Tpch_queries.all)
      Tpch.Scenarios.all
  in
  let serve ?pool () =
    let s = tpch_service ~sf ~tables ?pool Tpch.Scenarios.UA in
    List.iter
      (fun sc ->
        Serve.Service.add_tenant s ~id:(Tpch.Scenarios.name sc) ~policy:(Tpch.Scenarios.policy sc) ())
      Tpch.Scenarios.all;
    List.map (fun (r : Serve.Service.response) -> r.Serve.Service.outcome)
      (Serve.Service.submit_batch_requests s requests)
  in
  let one = serve () in
  Alcotest.(check int) "every query answers a table" 66
    (List.length (List.filter (function Serve.Service.Table _ -> true | _ -> false) one));
  let pool = Par.create ~name:"serve-tpch-pool" 4 in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
  Alcotest.(check (list bool)) "4 domains = 1 domain, byte for byte"
    (List.map (fun _ -> true) one)
    (List.map2 outcome_equal (serve ~pool ()) one)

(* Shared sub-plan lifecycle over one structurally repeated core:

   - cross-query reuse: a brand-new query shape (a plan-cache miss)
     still hits the sub-plan result cached from earlier queries'
     shared core, with bytes equal to a sharing-free fresh service at
     1 and [MPQ_JOBS] domains;
   - a grant-only policy delta keeps every sub-plan entry (rekeyed)
     and the shared hits keep coming;
   - a revocation the consumers depend on drops the shared entry once
     for all of them, and replanned answers equal the fresh oracle. *)
let test_shared_subplan_lifecycle () =
  let core () =
    Plan.join
      (Predicate.conj
         [ Predicate.Cmp_attr (Attr.make "a", Predicate.Eq, Attr.make "e") ])
      (Plan.base Gen.rel1) (Plan.base Gen.rel2)
  in
  let q1 = Plan.order_by [ (Attr.make "b", Plan.Asc) ] (core ()) in
  let q2 = Plan.limit 5 (core ()) in
  let q3 = Plan.project (Attr.Set.of_names [ "a"; "b"; "f" ]) (core ()) in
  let is_table (r : Serve.Service.response) =
    match r.Serve.Service.outcome with
    | Serve.Service.Table _ -> true
    | _ -> false
  in
  let deps_of (r : Serve.Service.response) q =
    let p = Option.get r.Serve.Service.planned in
    Analysis.Deps.of_extended ~deliver_to:Gen.user ~original:q
      ~extended:p.Planner.Optimizer.extended
      ~clusters:p.Planner.Optimizer.clusters ()
  in
  let dep_hitting_revoke ~rand ~policy d1 d2 =
    (* a revocation both cached consumers depend on; [None] when the
       draw budget finds none (e.g. the optimizer assigned every node
       to storing subjects, whose rules revoke_once spares) *)
    let rec go tries =
      if tries > 499 then None
      else
        let candidate = Gen.revoke_once policy rand in
        match
          Analysis.Delta.diff ~subjects:Gen.subjects ~old_policy:policy
            ~new_policy:candidate ()
        with
        | `Delta d
          when (not
                  (Analysis.Fact.Set.is_empty
                     (Analysis.Fact.Set.inter d.Analysis.Delta.removed d1)))
               && not
                    (Analysis.Fact.Set.is_empty
                       (Analysis.Fact.Set.inter d.Analysis.Delta.removed d2))
          ->
            Some candidate
        | _ -> go (tries + 1)
    in
    go 0
  in
  (* search a seeded policy that admits the scenario — all three
     queries plannable, the shared core actually reused across
     queries, and some revocation hits both consumers' dependency
     sets; the fixed seed sequence keeps the pick deterministic *)
  let rec find_policy seed =
    if seed > 199 then Alcotest.fail "no generated policy admits the scenario"
    else
      let rand = Random.State.make [| 0xBEEF; seed |] in
      let policy = Gen.gen_policy rand in
      let service = gen_service policy in
      let r1 = Serve.Service.submit service q1 in
      let r2 = Serve.Service.submit service q2 in
      let before = Serve.Service.stats service in
      let r3 = Serve.Service.submit service q3 in
      let after = Serve.Service.stats service in
      if
        List.for_all is_table [ r1; r2; r3 ]
        && after.Serve.Service.subplan_hits > before.Serve.Service.subplan_hits
        && dep_hitting_revoke
             ~rand:(Random.State.make [| 0xD0; seed |])
             ~policy (deps_of r1 q1) (deps_of r2 q2)
           <> None
      then (rand, policy, service, r1, r2, r3)
      else find_policy (seed + 1)
  in
  let rand, policy, service, r1, r2, r3 = find_policy 0 in
  Alcotest.(check bool) "cross-query reuse fired on a full-query miss" true
    (r3.Serve.Service.status = Serve.Service.Miss);
  Alcotest.(check bool) "the queries share plan-DAG nodes" true
    ((Serve.Service.dag_stats service).Planner.Dag.shared_occurrences > 0);
  (* reuse never shows in the bytes: a sharing-free fresh service
     answers identically, serially and on a pool *)
  let fresh_oracle ?pool q =
    let fresh = gen_service ?pool ~sharing:false policy in
    (Serve.Service.submit fresh q).Serve.Service.outcome
  in
  Alcotest.(check bool) "reused answer = fresh oracle (1 domain)" true
    (outcome_equal r3.Serve.Service.outcome (fresh_oracle q3));
  let pool = Par.create ~name:"serve-lifecycle" par_jobs in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () ->
      Alcotest.(check bool)
        (Printf.sprintf "reused answer = fresh oracle (%d domains)" par_jobs)
        true
        (outcome_equal r3.Serve.Service.outcome (fresh_oracle ~pool q3)));
  (* --- grant-only delta: sub-plan entries survive, rekeyed --- *)
  let rec find_grant tries p =
    if tries > 99 then Alcotest.fail "no grant-only mutation found"
    else
      let candidate = Gen.grant_once p rand in
      match
        Analysis.Delta.diff ~subjects:Gen.subjects ~old_policy:p
          ~new_policy:candidate ()
      with
      | `Delta d
        when Analysis.Delta.grant_only d && not (Analysis.Delta.is_empty d) ->
          candidate
      | _ -> find_grant (tries + 1) p
  in
  let granted = find_grant 0 policy in
  let before = Serve.Service.stats service in
  set_policy service granted;
  let after = Serve.Service.stats service in
  Alcotest.(check int) "grant-only delta drops no sub-plan entry"
    before.Serve.Service.subplan_invalidated
    after.Serve.Service.subplan_invalidated;
  Alcotest.(check int) "sub-plan entries retained across the migration"
    before.Serve.Service.subplan_entries after.Serve.Service.subplan_entries;
  let r1' = Serve.Service.submit service q1 in
  let hit = Serve.Service.stats service in
  Alcotest.(check bool) "plan entry still hits after the grant" true
    (r1'.Serve.Service.status = Serve.Service.Hit);
  Alcotest.(check bool) "shared sub-plan hits keep coming after the grant" true
    (hit.Serve.Service.subplan_hits > after.Serve.Service.subplan_hits);
  Alcotest.(check bool) "grant leaves the cached bytes untouched" true
    (outcome_equal r1.Serve.Service.outcome r1'.Serve.Service.outcome);
  (* --- revocation the consumers depend on: dropped for all --- *)
  let revoked =
    match
      dep_hitting_revoke ~rand ~policy:granted (deps_of r1 q1) (deps_of r2 q2)
    with
    | Some p -> p
    | None -> Alcotest.fail "no dependency-hitting revocation found"
  in
  let pre_revoke = Serve.Service.stats service in
  set_policy service revoked;
  let after = Serve.Service.stats service in
  Alcotest.(check bool)
    "dependent revocation drops sub-plan entries (once, for every consumer)"
    true
    (after.Serve.Service.subplan_invalidated
     > pre_revoke.Serve.Service.subplan_invalidated);
  Alcotest.(check bool) "resident sub-plan results shrank" true
    (after.Serve.Service.subplan_entries
     < pre_revoke.Serve.Service.subplan_entries);
  let r1'' = Serve.Service.submit service q1 in
  let r2'' = Serve.Service.submit service q2 in
  Alcotest.(check bool) "both consumers replan" true
    (r1''.Serve.Service.status = Serve.Service.Miss
    && r2''.Serve.Service.status = Serve.Service.Miss);
  let fresh_revoked q =
    let fresh = gen_service ~sharing:false revoked in
    (Serve.Service.submit fresh q).Serve.Service.outcome
  in
  Alcotest.(check bool) "replanned answers equal the fresh oracle" true
    (outcome_equal r1''.Serve.Service.outcome (fresh_revoked q1)
    && outcome_equal r2''.Serve.Service.outcome (fresh_revoked q2))

(* A stored sub-plan result carries the dependency set of the plan
   whose execution stored it. q1 runs first, so q2's execution stores
   the shared core (and its own whole result); q3 then reuses the core.
   The revocation below removes facts q2 depends on, but none that q1
   or q3 depend on and no key-duty fact of q2. A subtree's own slice
   reads only assignee facts of its nodes (q1 reads the same ones), the
   recipient's facts over the base inputs (q1 again) and key duties, so
   the core's slice misses the revocation: only the storing plan's set
   reaches it. Both of q2's entries drop, q1's and q3's survive. *)
let test_subplan_drops_with_storing_plan () =
  let core () =
    Plan.join
      (Predicate.conj
         [ Predicate.Cmp_attr (Attr.make "a", Predicate.Eq, Attr.make "e") ])
      (Plan.base Gen.rel1) (Plan.base Gen.rel2)
  in
  let q1 = Plan.order_by [ (Attr.make "b", Plan.Asc) ] (core ()) in
  let q2 =
    Plan.join
      (Predicate.conj
         [ Predicate.Cmp_attr (Attr.make "a", Predicate.Eq, Attr.make "h") ])
      (core ()) (Plan.base Gen.rel3)
  in
  let q3 = Plan.project (Attr.Set.of_names [ "a"; "b"; "f" ]) (core ()) in
  let is_table (r : Serve.Service.response) =
    match r.Serve.Service.outcome with
    | Serve.Service.Table _ -> true
    | _ -> false
  in
  let planned (r : Serve.Service.response) =
    Option.get r.Serve.Service.planned
  in
  let deps_of r q =
    let p = planned r in
    Analysis.Deps.of_extended ~deliver_to:Gen.user ~original:q
      ~extended:p.Planner.Optimizer.extended
      ~clusters:p.Planner.Optimizer.clusters ()
  in
  let key_duties r =
    let p = planned r in
    List.fold_left
      (fun acc (c : Plan_keys.cluster) ->
        Subject.Map.fold
          (fun s handled acc ->
            Analysis.Fact.Set.union acc
              (Analysis.Fact.of_levels s ~plain:handled ~enc:Attr.Set.empty))
          (Verify.Check_keys.duty_map p.Planner.Optimizer.extended
             c.Plan_keys.attrs)
          acc)
      Analysis.Fact.Set.empty p.Planner.Optimizer.clusters
  in
  let revocation ~rand ~policy ~hit ~spared =
    let rec go tries =
      if tries > 499 then None
      else
        let candidate = Gen.revoke_once policy rand in
        match
          Analysis.Delta.diff ~subjects:Gen.subjects ~old_policy:policy
            ~new_policy:candidate ()
        with
        | `Delta d
          when (not (Analysis.Fact.Set.disjoint d.Analysis.Delta.removed hit))
               && Analysis.Fact.Set.disjoint d.Analysis.Delta.removed spared
          ->
            Some candidate
        | _ -> go (tries + 1)
    in
    go 0
  in
  let rec find seed =
    if seed > 199 then Alcotest.fail "no generated policy admits the scenario"
    else
      let policy = Gen.gen_policy (Random.State.make [| 0xC0DE; seed |]) in
      let service = gen_service policy in
      let r1 = Serve.Service.submit service q1 in
      let r2 = Serve.Service.submit service q2 in
      let before = Serve.Service.stats service in
      let r3 = Serve.Service.submit service q3 in
      let after = Serve.Service.stats service in
      let found =
        if
          List.for_all is_table [ r1; r2; r3 ]
          && after.Serve.Service.subplan_hits
             > before.Serve.Service.subplan_hits
        then
          revocation
            ~rand:(Random.State.make [| 0x5EED; seed |])
            ~policy ~hit:(deps_of r2 q2)
            ~spared:
              (List.fold_left Analysis.Fact.Set.union (key_duties r2)
                 [ deps_of r1 q1; deps_of r3 q3 ])
        else None
      in
      match found with
      | Some revoked -> (revoked, service, r1, r3)
      | None -> find (seed + 1)
  in
  let revoked, service, r1, r3 = find 0 in
  let pre = Serve.Service.stats service in
  Alcotest.(check int) "four sub-plan entries: three results and the core" 4
    pre.Serve.Service.subplan_entries;
  set_policy service revoked;
  let post = Serve.Service.stats service in
  Alcotest.(check int) "q2's result and the core it stored are dropped" 2
    (post.Serve.Service.subplan_invalidated
    - pre.Serve.Service.subplan_invalidated);
  let fresh q =
    (Serve.Service.submit (gen_service ~sharing:false revoked) q)
      .Serve.Service.outcome
  in
  let r1' = Serve.Service.submit service q1 in
  let r3' = Serve.Service.submit service q3 in
  Alcotest.(check bool) "q1 and q3 still hit" true
    (r1'.Serve.Service.status = Serve.Service.Hit
    && r3'.Serve.Service.status = Serve.Service.Hit);
  Alcotest.(check bool) "their bytes are unchanged" true
    (outcome_equal r1.Serve.Service.outcome r1'.Serve.Service.outcome
    && outcome_equal r3.Serve.Service.outcome r3'.Serve.Service.outcome);
  let r2' = Serve.Service.submit service q2 in
  Alcotest.(check bool) "q2 replans" true
    (r2'.Serve.Service.status = Serve.Service.Miss);
  Alcotest.(check bool) "the replan equals the fresh oracle" true
    (outcome_equal r2'.Serve.Service.outcome (fresh q2))

(* Leakage gate: structurally equal subtrees under different
   environments must never share bytes. Same environment, same
   structure ⇒ identical sub-plan cache keys (sharing is deterministic
   across service instances); any environment difference ⇒ disjoint
   keys, including across policy epochs of one service. *)
let test_no_cross_environment_sharing () =
  let rec find seed =
    if seed > 199 then Alcotest.fail "no seed admits the scenario"
    else
      let rand = Random.State.make [| 0xFACE; seed |] in
      let q = Gen.gen_plan rand in
      let pa = Gen.gen_policy rand in
      let pb = Gen.revoke_once pa rand in
      let sa = gen_service pa in
      let sb = gen_service pb in
      let ra = Serve.Service.submit sa q and rb = Serve.Service.submit sb q in
      let planned (r : Serve.Service.response) =
        match r.Serve.Service.outcome with
        | Serve.Service.Table _ -> true
        | _ -> false
      in
      if
        planned ra && planned rb
        && Serve.Service.environment sa <> Serve.Service.environment sb
      then (q, pa, pb, sa, sb)
      else find (seed + 1)
  in
  let q, pa, pb, sa, sb = find 0 in
  let keys_a = Serve.Service.subcache_keys sa in
  let keys_b = Serve.Service.subcache_keys sb in
  Alcotest.(check bool) "sub-plan results were stored" true (keys_a <> []);
  (* determinism: a twin service under the same environment builds the
     exact same keys *)
  let sa' = gen_service pa in
  ignore (Serve.Service.submit sa' q);
  Alcotest.(check (list string)) "same environment ⇒ identical keys" keys_a
    (Serve.Service.subcache_keys sa');
  (* different policy ⇒ different environment fingerprint ⇒ disjoint *)
  Alcotest.(check bool) "different environment ⇒ disjoint keys" true
    (List.for_all (fun k -> not (List.mem k keys_b)) keys_a);
  (* epochs of one service: a policy change rotates the environment,
     so pre-mutation keys are unreachable afterwards — even for
     entries the migration retained (they are rekeyed) *)
  set_policy sa pb;
  ignore (Serve.Service.submit sa q);
  Alcotest.(check bool) "old-epoch keys unreachable after set_policy" true
    (List.for_all
       (fun k -> not (List.mem k keys_a))
       (Serve.Service.subcache_keys sa))

(* --- service stats ---------------------------------------------------- *)

let test_stats_accounting () =
  let service = example_service ~cache_capacity:8 () in
  ignore (Serve.Service.submit_sql service running_query);
  ignore (Serve.Service.submit_sql service running_query);
  ignore (Serve.Service.submit_sql service "select S from Hosp where D='flu'");
  let s = Serve.Service.stats service in
  Alcotest.(check int) "queries" 3 s.Serve.Service.queries;
  Alcotest.(check int) "hits" 1 s.Serve.Service.hits;
  Alcotest.(check int) "misses" 2 s.Serve.Service.misses;
  Alcotest.(check int) "entries" 2 s.Serve.Service.entries;
  Alcotest.(check int) "rejections" 0 s.Serve.Service.rejections;
  Alcotest.(check bool) "plan time accounted" true
    (s.Serve.Service.plan_ms > 0.0);
  (* invalidate drops entries, keeps counters *)
  Serve.Service.invalidate service;
  let s' = Serve.Service.stats service in
  Alcotest.(check int) "cache emptied" 0 s'.Serve.Service.entries;
  Alcotest.(check int) "history kept" 2 s'.Serve.Service.misses

(* An engine error while one query executes rejects only that query's
   requests, its representative and every alias; the rest of the round
   is served and the failing plan stays cached. Responses, both caches
   and the counters are the same at 1 and [MPQ_JOBS] domains. *)
let test_exec_error_isolated () =
  let good1 = "select T from Hosp" and bad = "select sum(T) from Hosp"
  and good2 = "select D from Hosp" in
  let run ?pool () =
    let service = example_service ?pool () in
    let submit sqls =
      List.map
        (fun (r : Serve.Service.response) ->
          match r.Serve.Service.outcome with
          | Serve.Service.Table t -> "table " ^ Engine.Csv.to_string t
          | Serve.Service.Rejected m -> "rejected: " ^ m
          | Serve.Service.Expired m -> "expired: " ^ m)
        (Serve.Service.submit_batch service
           (List.map (Serve.Service.parse service) sqls))
    in
    let first = submit [ good1; bad; good2 ] in
    let second = submit [ bad; good1; bad ] in
    let s = Serve.Service.stats service in
    ( (first, second),
      (Serve.Service.cache_keys service, Serve.Service.subcache_keys service),
      Serve.Service.
        [ s.hits; s.misses; s.rejections; s.shared_execs; s.subplan_hits;
          s.subplan_stores ] )
  in
  let ((first, second), _, counters) as serial = run () in
  let kinds = List.map (fun r -> List.hd (String.split_on_char ' ' r)) in
  Alcotest.(check (list string)) "good, bad, good" [ "table"; "rejected:"; "table" ]
    (kinds first);
  Alcotest.(check string) "the engine's message"
    "rejected: execution failed: aggregate over non-numeric \"tpa\""
    (List.nth first 1);
  Alcotest.(check (list string)) "a cached failing plan fails again, aliased"
    [ "rejected:"; "table"; "rejected:" ] (kinds second);
  (* hits, misses, rejections, shared execs, sub-plan hits and stores *)
  Alcotest.(check (list int)) "counters" [ 3; 3; 3; 1; 2; 3 ] counters;
  let pool = Par.create ~name:"serve-exec-error" par_jobs in
  let parallel =
    Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
    run ~pool ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "same responses, caches and counters at %d domains"
       par_jobs)
    true (serial = parallel)

(* A policy whose schemas disagree with the loaded tables is refused
   with the disagreement, and the service keeps its policy, environment
   and cache: the next request hits with the same bytes. *)
let test_policy_schema_refused () =
  let service = example_service () in
  let r1 = Serve.Service.submit_sql service running_query in
  let env = Serve.Service.environment service
  and keys = Serve.Service.cache_keys service in
  let variant edit = (Policy_dsl.parse (edit Policy_dsl.example)).Policy_dsl.policy in
  let replace a b = Str.global_replace (Str.regexp_string a) b in
  let refused label policy want =
    match Serve.Service.set_policy service policy with
    | Ok () -> Alcotest.failf "%s: installed" label
    | Error got ->
        Alcotest.(check string) label (Serve.Service.conflict_message want)
          (Serve.Service.conflict_message got);
        Alcotest.(check bool) (label ^ ": the conflict itself") true (got = want)
  in
  refused "Ins.P retyped"
    (variant (replace "(C string, P int)" "(C string, P string)"))
    (Serve.Service.Column_type { relation = "Ins"; attr = "P"; declared = Schema.Tstring });
  refused "Ins.Q added"
    (variant (replace "(C string, P int)" "(C string, P int, Q int)"))
    (Serve.Service.Missing_column { relation = "Ins"; attr = "Q" });
  refused "Ins dropped"
    (variant (fun text ->
         String.concat "\n"
           (List.filter
              (* Ins, and the grants to its owner I *)
              (fun line -> not (Str.string_match (Str.regexp ".*\\(Ins\\| to I \\)") line 0))
              (String.split_on_char '\n' text))))
    (Serve.Service.Dropped_relation "Ins");
  Alcotest.(check string) "environment kept" env (Serve.Service.environment service);
  Alcotest.(check (list string)) "cache kept" keys (Serve.Service.cache_keys service);
  let r2 = Serve.Service.submit_sql service running_query in
  Alcotest.(check bool) "still a hit" true (r2.Serve.Service.status = Serve.Service.Hit);
  Alcotest.(check bool) "same bytes" true
    (outcome_equal r1.Serve.Service.outcome r2.Serve.Service.outcome);
  Alcotest.(check bool) "Ins.P as float is installed" true
    (Serve.Service.set_policy service
       (variant (replace "(C string, P int)" "(C string, P float)"))
    = Ok ())

(* A service is never built over tables its policy disagrees with:
   with one det ciphertext in Ins.P, declared int, creating it raises
   the conflict set_policy returns, and so does registering a tenant
   whose policy retypes a loaded column; the tenant is not added. *)
let test_create_checks_tables () =
  let env = example_env () in
  let enc = Value.Enc { Value.scheme = "det"; key_id = "k"; payload = "70" } in
  let tables =
    List.map
      (fun (name, t) ->
        if name <> "Ins" then (name, t)
        else
          ( name,
            Engine.Table.create (Engine.Table.attrs t)
              (List.mapi
                 (fun i row -> if i = 0 then [| row.(0); enc |] else row)
                 (Engine.Table.rows t)) ))
      (demo_tables env)
  in
  let refused label want f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" label
    | exception Serve.Service.Policy_conflict got ->
        Alcotest.(check string) label (Serve.Service.conflict_message want)
          (Serve.Service.conflict_message got);
        Alcotest.(check bool) (label ^ ": the conflict itself") true (got = want)
  in
  refused "create over a det cell in Ins.P"
    (Serve.Service.Column_type { relation = "Ins"; attr = "P"; declared = Schema.Tint })
    (fun () ->
      ignore
        (Serve.Service.create ~policy:env.Policy_dsl.policy
           ~subjects:env.Policy_dsl.subjects ~tables ()));
  let service = example_service () in
  let retyped =
    (Policy_dsl.parse
       (Str.global_replace (Str.regexp_string "(C string, P int)") "(C string, P string)"
          Policy_dsl.example))
      .Policy_dsl.policy
  in
  refused "a tenant retyping Ins.P"
    (Serve.Service.Column_type { relation = "Ins"; attr = "P"; declared = Schema.Tstring })
    (fun () -> Serve.Service.add_tenant service ~id:"retyped" ~policy:retyped ());
  Alcotest.(check (list string)) "no tenant added" [ Serve.Tenancy.default_id ]
    (Serve.Service.tenant_ids service)

(* set_policy runs under its own span, with the diff, the environment
   rotation and the cache migration as children *)
let test_set_policy_spans () =
  let service = example_service () in
  ignore (Serve.Service.submit_sql service running_query);
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ()) @@ fun () ->
  set_policy service (example_env ()).Policy_dsl.policy;
  let rec edges parent = function
    | Json.Obj fields ->
        let name =
          match List.assoc_opt "name" fields with Some (Json.String n) -> n | _ -> "?"
        in
        let children =
          match List.assoc_opt "children" fields with Some (Json.List cs) -> cs | _ -> []
        in
        (parent, name) :: List.concat_map (edges name) children
    | _ -> []
  in
  let tree =
    match Obs.render_json () with
    | Json.Obj fields -> (
        match List.assoc_opt "spans" fields with
        | Some (Json.List roots) -> List.concat_map (edges "") roots
        | _ -> [])
    | _ -> []
  in
  List.iter
    (fun edge ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s > %s" (fst edge) (snd edge))
        true (List.mem edge tree))
    [ ("", "serve.set_policy"); ("serve.set_policy", "serve.rotate");
      ("serve.set_policy", "serve.migrate"); ("serve.migrate", "analysis.diff") ]

(* --- the key store ------------------------------------------------------ *)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ()) f

(* A Service keeps its cluster keys for its lifetime: a second TPC-H
   pass derives no key, and neither pass runs a det or OPE cipher (every
   such column stays sealed and no served result reads one); [invalidate]
   drops the store, so the pass after it derives exactly what the first
   one derived. *)
let test_key_store_lifetime () =
  let sf = 0.0005 in
  let service =
    tpch_service ~sf ~tables:(tpch_tables sf) ~sharing:false Tpch.Scenarios.UAPenc
  in
  let pass () =
    Obs.reset ();
    List.iter
      (fun q -> ignore (Serve.Service.submit service (Tpch.Tpch_queries.query q)))
      (List.init 22 succ);
    ( Obs.counter "enc_exec.keys.derived",
      Obs.counter "enc_exec.det.sealed" + Obs.counter "enc_exec.ope.sealed",
      Obs.counter "enc_exec.det.materialized" + Obs.counter "enc_exec.ope.materialized" )
  in
  with_obs @@ fun () ->
  let derived1, sealed1, made1 = pass () in
  let derived2, sealed2, made2 = pass () in
  Serve.Service.invalidate service;
  let derived3, sealed3, made3 = pass () in
  Alcotest.(check bool) "first pass derives keys and seals" true
    (derived1 > 0 && sealed1 > 0);
  Alcotest.(check int) "second pass: no key derived" 0 derived2;
  Alcotest.(check bool) "second pass still seals" true (sealed2 > 0);
  Alcotest.(check (list int)) "no det/OPE cell materialized" [ 0; 0; 0 ]
    [ made1; made2; made3 ];
  Alcotest.(check (pair int int)) "after invalidate: the first pass again"
    (derived1, sealed1) (derived3, sealed3)

(* With no user to deliver to, computing priced near zero for the
   authorities and million-row estimates, the plan sums P where it is
   visible only encrypted: under Paillier. *)
let test_phe_keygen_once () =
  let env = example_env () in
  let service =
    Serve.Service.create ~sharing:false
      ~pricing:(Planner.Pricing.make ~authority_factor:1e-6 ())
      ~base:(fun r ->
        Some
          (Planner.Estimate.of_widths ~card:1e6
             (if r = "Hosp" then [ ("S", 8.); ("B", 8.); ("D", 8.); ("T", 8.) ]
              else [ ("C", 8.); ("P", 8.) ])))
      ~policy:env.Policy_dsl.policy
      ~subjects:
        (List.filter
           (fun s -> s.Subject.role <> Subject.User)
           env.Policy_dsl.subjects)
      ~tables:(demo_tables env) ()
  in
  with_obs @@ fun () ->
  let run () =
    Serve.Service.submit_sql service
      "select T, sum(P) from Hosp join Ins on S=C group by T"
  in
  let first = run () in
  let second = run () in
  let keygens = Obs.counter "enc_exec.paillier.keygens" in
  let planned = Option.get first.Serve.Service.planned in
  let clusters = planned.Planner.Optimizer.clusters in
  Alcotest.(check (list string)) "the plan sums under phe" [ "phe" ]
    (List.map (fun c -> Mpq_crypto.Scheme.name c.Plan_keys.scheme) clusters);
  Alcotest.(check bool) "second run is a plan-cache hit" true
    (second.Serve.Service.status = Serve.Service.Hit);
  Alcotest.(check bool) "same bytes" true
    (outcome_equal first.Serve.Service.outcome second.Serve.Service.outcome);
  Alcotest.(check int) "one Paillier keygen" 1 keygens;
  (* the sums decrypt under the service's seed *)
  let crypto =
    Engine.Enc_exec.make (Mpq_crypto.Keyring.create ~seed:42L ()) clusters
  in
  match first.Serve.Service.outcome with
  | Serve.Service.Table t ->
      Alcotest.(check (list string)) "the sums"
        [ "\"rest\",80"; "\"surgery\",300"; "\"tpa\",270" ]
        (List.sort compare
           (List.map
              (fun row ->
                String.concat ","
                  (Array.to_list
                     (Array.map
                        (fun v ->
                          Value.to_string
                            (if Value.is_encrypted v then
                               Engine.Enc_exec.decrypt_value crypto v
                             else v))
                        row)))
              (Engine.Table.rows t)))
  | _ -> Alcotest.fail "expected a table"

let () =
  Alcotest.run "serve"
    [ ( "lru",
        [ ("bounds, order, stats", `Quick, test_lru_bounds);
          ("recency-list vs stamp model, 600 random ops", `Quick,
           test_lru_model_differential) ] );
      ( "fingerprint",
        [ ("attribute-set collision regression", `Quick,
           test_plan_fingerprint_no_set_collision);
          ("structural stability", `Quick, test_plan_fingerprint_structural);
          ("environment sensitivity", `Quick, test_environment_sensitivity) ] );
      ( "warm=cold",
        [ ("tpch 4 queries x 3 scenarios", `Slow, test_tpch_warm_equals_cold);
          QCheck_alcotest.to_alcotest prop_warm_equals_cold ] );
      ( "invalidation",
        [ ("single-permission policy change", `Quick, test_policy_invalidation);
          ("pricing/network/config change", `Quick, test_config_invalidation);
          ("set_policy spans", `Quick, test_set_policy_spans);
          ("policy disagreeing with the tables is refused", `Quick, test_policy_schema_refused);
          ("create and add_tenant check the tables", `Quick, test_create_checks_tables);
          ("500-event churn: incremental = rotation = replan", `Slow,
           test_churn_vs_replan) ]
      );
      ( "concurrency",
        [ ("200-query stream, 1 vs 4 domains", `Slow, test_stream_determinism);
          ("eviction determinism under small cache", `Slow,
           test_eviction_determinism);
          ("batching transparency", `Slow, test_batching_transparent) ] );
      ( "sharing",
        [ QCheck_alcotest.to_alcotest prop_sharing_vs_isolated;
          ("tpch stream: shared = isolated, pinned counters", `Slow,
           test_tpch_sharing_pinned);
          ("66 tpch queries: 4 domains = 1 domain", `Slow, test_tpch_pool_equals_one_domain);
          ("shared sub-plan lifecycle: reuse, grants, revocation", `Slow,
           test_shared_subplan_lifecycle);
          ("no sharing across environments", `Quick,
           test_no_cross_environment_sharing);
          ("a sub-plan result drops with its storing plan's facts", `Slow,
           test_subplan_drops_with_storing_plan) ] );
      ( "stats",
        [ ("hit/miss accounting", `Quick, test_stats_accounting);
          ("an execution error rejects one query", `Quick,
           test_exec_error_isolated) ] );
      ( "key store",
        [ ("tpch: second pass derives no key, invalidate resets", `Slow,
           test_key_store_lifetime);
          ("phe plan twice: same bytes, one keygen", `Quick,
           test_phe_keygen_once) ] ) ]
