(* Multi-tenant serving: the isolation & determinism battery.

   1. cross-tenant isolation — the same query stream served under two
      tenants with different policies produces per-tenant responses
      byte-identical to single-tenant oracle services, disjoint cache
      key sets, additive hit/miss/sub-plan statistics (no cross-tenant
      reuse of anything) and cross_tenant_hits = 0. Isolation is a
      key-space property: the tenant id is a field of the environment
      fingerprint, so two tenants cannot collide even when their
      policies are byte-identical.
   2. stream determinism — one generated stream (queries + policy
      mutations, two tenants) replayed at jobs {1,MPQ_JOBS} yields
      byte-identical responses, identical hit/miss/eviction stats, and
      identical final plan- and sub-plan cache key sets: the
      deterministic cache-evolution guarantee holds with tenants.
   3. per-tenant invalidation — revoking a permission in tenant A
      drops exactly the entries a single-tenant control service would
      drop (the Analysis.Deps prediction), while tenant B's warm hits,
      sub-plan entries, environment fingerprint and counters are
      untouched.
   4. per-tenant recipients — a tenant registered with its own subject
      population is served for its own user, exactly as a
      single-tenant service over that population. *)

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

let par_jobs =
  match Sys.getenv_opt "MPQ_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

(* --- service fixtures ------------------------------------------------- *)

let example_env () = Policy_dsl.parse Policy_dsl.example

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

let example_service ?pool ?policy () =
  let env = example_env () in
  Serve.Service.create ?pool
    ~policy:(Option.value ~default:env.Policy_dsl.policy policy)
    ~subjects:env.Policy_dsl.subjects ~tables:(demo_tables env) ()

let running_query =
  "select T, avg(P) from Hosp join Ins on S=C where D='stroke' \
   group by T having P>100"

(* random-catalog tables, deterministic rows (test_serve's fixture) *)
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

let gen_service ?pool policy =
  Serve.Service.create ?pool ~policy ~subjects:Gen.subjects
    ~tables:(gen_catalog_tables ()) ~udfs:udf_impls ~deliver_to:Gen.user ()

(* --- tenant registry -------------------------------------------------- *)

let test_tenant_registry () =
  let service = example_service () in
  Alcotest.(check (list string)) "starts with the default tenant"
    [ Serve.Tenancy.default_id ]
    (Serve.Service.tenant_ids service);
  Serve.Service.add_tenant service ~id:"acme" ();
  Alcotest.(check (list string)) "ids sorted" [ "acme"; "default" ]
    (Serve.Service.tenant_ids service);
  (try
     Serve.Service.add_tenant service ~id:"acme" ();
     Alcotest.fail "duplicate tenant id must be refused"
   with Invalid_argument _ -> ());
  (* byte-identical policy, still a disjoint key space: the tenant id
     itself is a fingerprint field *)
  Alcotest.(check bool) "identical policies, distinct environments" false
    (Serve.Service.environment service
    = Serve.Service.environment ~tenant:"acme" service);
  let before_keys = Serve.Service.cache_keys service in
  (* parsing is tenant-scoped too (it needs the tenant's schemas) and
     fails loudly on an unknown id *)
  (try
     ignore (Serve.Service.parse ~tenant:"ghost" service running_query);
     Alcotest.fail "parse under an unknown tenant must be refused"
   with Invalid_argument _ -> ());
  let plan = Serve.Service.parse service running_query in
  let r = Serve.Service.submit ~tenant:"ghost" service plan in
  (match r.Serve.Service.outcome with
  | Serve.Service.Rejected msg ->
      Alcotest.(check bool) "rejection names the tenant" true
        (try
           ignore (Str.search_forward (Str.regexp_string "ghost") msg 0);
           true
         with Not_found -> false)
  | _ -> Alcotest.fail "unknown tenant must be rejected");
  Alcotest.(check string) "refused before keying" "" r.Serve.Service.key;
  Alcotest.(check string) "tenant echoed" "ghost" r.Serve.Service.tenant;
  Alcotest.(check (list string)) "cache untouched by the refusal"
    before_keys
    (Serve.Service.cache_keys service);
  (* the same query under both tenants: one entry each, both warm *)
  let a = Serve.Service.submit_sql service running_query in
  let b = Serve.Service.submit_sql ~tenant:"acme" service running_query in
  Alcotest.(check bool) "disjoint keys for the same query" false
    (a.Serve.Service.key = b.Serve.Service.key);
  Alcotest.(check bool) "equal bytes under equal policies" true
    (outcome_equal a.Serve.Service.outcome b.Serve.Service.outcome);
  Alcotest.(check bool) "acme warm" true
    ((Serve.Service.submit_sql ~tenant:"acme" service running_query)
       .Serve.Service.status = Serve.Service.Hit);
  let stats = Serve.Service.stats service in
  Alcotest.(check int) "tenants counted" 2 stats.Serve.Service.tenants;
  Alcotest.(check int) "no cross-tenant hits" 0
    stats.Serve.Service.cross_tenant_hits;
  let per = Serve.Service.tenant_stats service in
  let acme = List.assoc "acme" per and dflt = List.assoc "default" per in
  Alcotest.(check int) "acme queries" 2 acme.Serve.Tenancy.queries;
  Alcotest.(check int) "acme hits" 1 acme.Serve.Tenancy.hits;
  Alcotest.(check int) "default queries" 1 dflt.Serve.Tenancy.queries;
  Alcotest.(check int) "ghost refusal charged to no registered tenant" 1
    stats.Serve.Service.rejections

(* --- cross-tenant isolation (property) -------------------------------- *)

let arbitrary_batch_two_policies =
  QCheck.make
    ~print:(fun (qs, _, _) ->
      String.concat "\n--- next query ---\n" (List.map Plan_printer.to_ascii qs))
    QCheck.Gen.(
      triple (Gen.gen_batch ~overlap:0.8 6) Gen.gen_policy Gen.gen_policy)

(* One batch, every query submitted under both tenants, interleaved in
   a single round. Each tenant's subsequence must be indistinguishable
   from a single-tenant oracle service running that tenant's policy —
   statuses, bytes, and (for the default tenant, whose id matches the
   oracle's) cache keys — and every statistic must be additive: any
   cross-tenant reuse of a plan or sub-plan result would show up as a
   hit the oracles don't have. *)
let prop_cross_tenant_isolation =
  QCheck.Test.make ~count:6
    ~name:
      "cross-tenant isolation: disjoint keys, additive stats, \
       oracle-identical bytes"
    arbitrary_batch_two_policies
    (fun (batch, pa, pb) ->
      let multi = gen_service pa in
      Serve.Service.add_tenant multi ~id:"b" ~policy:pb ();
      let reqs =
        List.concat_map
          (fun q ->
            [ Serve.Service.request q;
              Serve.Service.request ~tenant:"b" q ])
          batch
      in
      let rs = Serve.Service.submit_batch_requests multi reqs in
      let ra = List.filteri (fun i _ -> i mod 2 = 0) rs in
      let rb = List.filteri (fun i _ -> i mod 2 = 1) rs in
      let oa = gen_service pa and ob = gen_service pb in
      let osa = Serve.Service.submit_batch oa batch in
      let osb = Serve.Service.submit_batch ob batch in
      let check_against ~tenant ~keys_equal side oracle =
        List.iteri
          (fun i ((m : Serve.Service.response), (o : Serve.Service.response)) ->
            if m.Serve.Service.tenant <> tenant then
              QCheck.Test.fail_reportf "query %d: served under %S, not %S" i
                m.Serve.Service.tenant tenant;
            if m.Serve.Service.status <> o.Serve.Service.status then
              QCheck.Test.fail_reportf "query %d [%s]: status diverges" i
                tenant;
            if keys_equal && m.Serve.Service.key <> o.Serve.Service.key then
              QCheck.Test.fail_reportf "query %d [%s]: key diverges" i tenant;
            if
              (not keys_equal)
              && m.Serve.Service.key = o.Serve.Service.key
            then
              QCheck.Test.fail_reportf
                "query %d [%s]: key ignores the tenant id" i tenant;
            if
              not
                (outcome_equal m.Serve.Service.outcome o.Serve.Service.outcome)
            then
              QCheck.Test.fail_reportf
                "query %d [%s]: bytes diverge from the oracle" i tenant)
          (List.combine side oracle)
      in
      check_against ~tenant:"default" ~keys_equal:true ra osa;
      (* tenant b runs policy pb under id "b"; the oracle runs pb under
         id "default" — bytes equal, keys provably different *)
      check_against ~tenant:"b" ~keys_equal:false rb osb;
      let keys side =
        List.map (fun (r : Serve.Service.response) -> r.Serve.Service.key) side
      in
      let kb = keys rb in
      List.iteri
        (fun i k ->
          if List.mem k kb then
            QCheck.Test.fail_reportf "query %d: key collides across tenants" i)
        (keys ra);
      let s = Serve.Service.stats multi in
      let sa = Serve.Service.stats oa and sb = Serve.Service.stats ob in
      let additive what f =
        if f s <> f sa + f sb then
          QCheck.Test.fail_reportf
            "%s not additive: %d under two tenants, %d + %d in isolation" what
            (f s) (f sa) (f sb)
      in
      additive "hits" (fun (s : Serve.Service.stats) -> s.Serve.Service.hits);
      additive "misses" (fun (s : Serve.Service.stats) ->
          s.Serve.Service.misses);
      additive "insertions" (fun (s : Serve.Service.stats) ->
          s.Serve.Service.insertions);
      (* sub-plan hit/store totals are deliberately NOT compared: the
         hash-consed DAG is structural and service-global, so a second
         tenant planning the same shapes raises occurrence counts and
         shifts which subtrees count as maximal memo positions. That
         changes how many entries get stored — never whose results are
         reused (keys stay tenant-disjoint; bytes match the oracles;
         cross_tenant_hits stays 0). *)
      additive "shared execs" (fun (s : Serve.Service.stats) ->
          s.Serve.Service.shared_execs);
      if s.Serve.Service.cross_tenant_hits <> 0 then
        QCheck.Test.fail_reportf "%d cross-tenant hits"
          s.Serve.Service.cross_tenant_hits;
      (* warm replay: every request hits inside its own tenant's key
         space and answers do not change *)
      let rs2 = Serve.Service.submit_batch_requests multi reqs in
      List.iteri
        (fun i ((r1 : Serve.Service.response), (r2 : Serve.Service.response)) ->
          if r2.Serve.Service.status <> Serve.Service.Hit then
            QCheck.Test.fail_reportf "query %d: warm replay missed" i;
          if r1.Serve.Service.key <> r2.Serve.Service.key then
            QCheck.Test.fail_reportf "query %d: warm replay changed keys" i;
          if
            not
              (outcome_equal r1.Serve.Service.outcome r2.Serve.Service.outcome)
          then QCheck.Test.fail_reportf "query %d: warm replay changed bytes" i)
        (List.combine rs rs2);
      if (Serve.Service.stats multi).Serve.Service.cross_tenant_hits <> 0 then
        QCheck.Test.fail_report "warm replay produced cross-tenant hits";
      true)

(* --- stream determinism ----------------------------------------------- *)

(* One concretized stream — queries under two tenants plus interleaved
   default-tenant policy mutations — replayed at jobs {1,MPQ_JOBS}.
   Every replay must produce byte-identical responses, identical
   hit/miss/insertion/eviction statistics and identical final plan- and
   sub-plan-cache key sets: every cache mutation happens on the
   coordinating domain, so the job count is invisible. *)
let test_stream_determinism () =
  let rand = Random.State.make [| 0x7E4A47 |] in
  let plan_pool = Array.init 10 (fun _ -> Gen.gen_plan rand) in
  let policy0 = Gen.gen_policy rand in
  let policy_b = Gen.mutate_policy ~mode:`Mixed policy0 rand in
  let events =
    Gen.gen_stream ~repeat_rate:0.6 ~mutation_rate:0.05 ~pool:plan_pool 120
      rand
  in
  (* concretize once: every replay sees the same queries, the same
     tenant assignment, the same mutated policies *)
  let script =
    List.rev
      (snd
         (List.fold_left
            (fun (policy, acc) ev ->
              match ev with
              | Gen.Squery q ->
                  let tenant =
                    if List.length acc mod 3 = 2 then "b" else "default"
                  in
                  (policy, `Query (q, tenant) :: acc)
              | Gen.Smutate ->
                  let policy' = Gen.mutate_policy ~mode:`Mixed policy rand in
                  (policy', `Set policy' :: acc))
            (policy0, []) events))
  in
  let replay ~jobs () =
    let run pool =
      let service = gen_service ?pool policy0 in
      Serve.Service.add_tenant service ~id:"b" ~policy:policy_b ();
      let flush batch acc =
        match batch with
        | [] -> acc
        | rs -> acc @ Serve.Service.submit_batch_requests service (List.rev rs)
      in
      let responses, pending =
        List.fold_left
          (fun (acc, batch) ev ->
            match ev with
            | `Query (q, tenant) ->
                (acc, Serve.Service.request ~tenant q :: batch)
            | `Set policy ->
                let acc = flush batch acc in
                set_policy service policy;
                (acc, []))
          ([], []) script
      in
      let responses = flush pending responses in
      ( responses,
        Serve.Service.cache_keys service,
        Serve.Service.subcache_keys service,
        Serve.Service.stats service )
    in
    if jobs <= 1 then run None
    else
      let pool = Par.create ~name:"tenancy-test" jobs in
      Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
      run (Some pool)
  in
  let base_r, base_keys, base_sub, base_stats = replay ~jobs:1 () in
  Alcotest.(check bool) "stream produced queries" true (base_r <> []);
  List.iter
    (fun jobs ->
      let label what = Printf.sprintf "%s @%d jobs" what jobs in
      let r, keys, sub, stats = replay ~jobs () in
      Alcotest.(check int) (label "response count") (List.length base_r)
        (List.length r);
      List.iteri
        (fun i ((a : Serve.Service.response), (b : Serve.Service.response)) ->
          if
            a.Serve.Service.status <> b.Serve.Service.status
            || a.Serve.Service.key <> b.Serve.Service.key
            || a.Serve.Service.tenant <> b.Serve.Service.tenant
            || not
                 (outcome_equal a.Serve.Service.outcome b.Serve.Service.outcome)
          then Alcotest.failf "%s diverges" (label (Printf.sprintf "response %d" i)))
        (List.combine base_r r);
      Alcotest.(check (list string)) (label "final plan-cache keys") base_keys
        keys;
      Alcotest.(check (list string)) (label "final sub-plan-cache keys")
        base_sub sub;
      Alcotest.(check (list int)) (label "stats")
        [ base_stats.Serve.Service.hits; base_stats.Serve.Service.misses;
          base_stats.Serve.Service.insertions;
          base_stats.Serve.Service.evictions;
          base_stats.Serve.Service.invalidated;
          base_stats.Serve.Service.reverified;
          base_stats.Serve.Service.retained;
          base_stats.Serve.Service.subplan_hits;
          base_stats.Serve.Service.subplan_stores;
          base_stats.Serve.Service.subplan_invalidated;
          base_stats.Serve.Service.shared_execs ]
        [ stats.Serve.Service.hits; stats.Serve.Service.misses;
          stats.Serve.Service.insertions; stats.Serve.Service.evictions;
          stats.Serve.Service.invalidated; stats.Serve.Service.reverified;
          stats.Serve.Service.retained; stats.Serve.Service.subplan_hits;
          stats.Serve.Service.subplan_stores;
          stats.Serve.Service.subplan_invalidated;
          stats.Serve.Service.shared_execs ];
      Alcotest.(check int) (label "cross-tenant hits") 0
        stats.Serve.Service.cross_tenant_hits)
    [ par_jobs ]

(* --- per-tenant invalidation ------------------------------------------ *)

let test_per_tenant_invalidation () =
  let original = example_env () in
  let revoked =
    (* Y loses plaintext P on Ins — a fact the running query's plan
       provably depends on *)
    Policy_dsl.parse
      (Str.global_replace
         (Str.regexp_string "authorize Ins to Y plain P enc C")
         "authorize Ins to Y enc C" Policy_dsl.example)
  in
  let multi = example_service () in
  Serve.Service.add_tenant multi ~id:"b" ();
  let submit tenant = Serve.Service.submit_sql ~tenant multi running_query in
  let a1 = submit "default" in
  let b1 = submit "b" in
  Alcotest.(check bool) "default warm" true
    ((submit "default").Serve.Service.status = Serve.Service.Hit);
  Alcotest.(check bool) "b warm" true
    ((submit "b").Serve.Service.status = Serve.Service.Hit);
  (* the Deps prediction that makes the default-tenant drop mandatory *)
  (match a1.Serve.Service.planned with
  | None -> Alcotest.fail "running query should be plannable"
  | Some r ->
      let deps =
        Analysis.Deps.of_extended
          ~deliver_to:
            (List.find
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
  (* control: the same warm-up + revoke on a single-tenant service is
     the exact prediction for what tenant-scoped migration may drop *)
  let control = example_service () in
  ignore (Serve.Service.submit_sql control running_query);
  ignore (Serve.Service.submit_sql control running_query);
  set_policy control revoked.Policy_dsl.policy;
  let cs = Serve.Service.stats control in
  let before = Serve.Service.stats multi in
  let env_a = Serve.Service.environment multi in
  let env_b = Serve.Service.environment ~tenant:"b" multi in
  set_policy multi revoked.Policy_dsl.policy;
  let after = Serve.Service.stats multi in
  Alcotest.(check int) "plan drops match the single-tenant prediction"
    cs.Serve.Service.invalidated
    (after.Serve.Service.invalidated - before.Serve.Service.invalidated);
  Alcotest.(check int) "sub-plan drops match the single-tenant prediction"
    cs.Serve.Service.subplan_invalidated
    (after.Serve.Service.subplan_invalidated
    - before.Serve.Service.subplan_invalidated);
  Alcotest.(check bool) "default's environment rotated" false
    (Serve.Service.environment multi = env_a);
  Alcotest.(check string) "b's environment did not rotate" env_b
    (Serve.Service.environment ~tenant:"b" multi);
  (* tenant b is untouched in every observable respect *)
  let b2 = submit "b" in
  Alcotest.(check bool) "b still hits after the revoke in default" true
    (b2.Serve.Service.status = Serve.Service.Hit);
  Alcotest.(check string) "b's key survived untouched" b1.Serve.Service.key
    b2.Serve.Service.key;
  Alcotest.(check bool) "b's bytes unchanged" true
    (outcome_equal b1.Serve.Service.outcome b2.Serve.Service.outcome);
  let per = Serve.Service.tenant_stats multi in
  Alcotest.(check int) "b lost no entries" 0
    (List.assoc "b" per).Serve.Tenancy.invalidated;
  Alcotest.(check int)
    "default charged for every drop (plans + sub-plans)"
    (cs.Serve.Service.invalidated + cs.Serve.Service.subplan_invalidated)
    (List.assoc "default" per).Serve.Tenancy.invalidated;
  Alcotest.(check int) "b's epoch did not advance" 0
    (List.assoc "b" per).Serve.Tenancy.epoch;
  (* the default tenant replans, and the replan equals a cache-less
     service under the revoked policy *)
  let a2 = submit "default" in
  Alcotest.(check bool) "dependent revocation forces a default miss" true
    (a2.Serve.Service.status = Serve.Service.Miss);
  let fresh = example_service ~policy:revoked.Policy_dsl.policy () in
  Alcotest.(check bool) "default replan equals a cache-less oracle" true
    (outcome_equal a2.Serve.Service.outcome
       (Serve.Service.submit_sql fresh running_query).Serve.Service.outcome);
  Alcotest.(check int) "still no cross-tenant hits" 0
    (Serve.Service.stats multi).Serve.Service.cross_tenant_hits

(* --- per-tenant recipients --------------------------------------------- *)

(* The running example with its user renamed: a tenant registered with
   this subject population must be served for V, its own user. Copying
   the default tenant's recipient (U, not even one of its subjects)
   would make the planner refuse the query for U. *)
let test_tenant_own_recipient () =
  let renamed =
    Policy_dsl.parse
      (List.fold_left
         (fun text (a, b) -> Str.global_replace (Str.regexp_string a) b text)
         Policy_dsl.example
         [ ("user U\n", "user V\n"); ("to U plain", "to V plain") ])
  in
  let multi = example_service () in
  Serve.Service.add_tenant multi ~id:"acme" ~policy:renamed.Policy_dsl.policy
    ~subjects:renamed.Policy_dsl.subjects ();
  let single =
    Serve.Service.create ~policy:renamed.Policy_dsl.policy
      ~subjects:renamed.Policy_dsl.subjects ~tables:(demo_tables renamed) ()
  in
  let expected = Serve.Service.submit_sql single running_query in
  (match expected.Serve.Service.outcome with
  | Serve.Service.Table t ->
      Alcotest.(check int) "the renamed policy answers the query" 2
        (Engine.Table.cardinality t)
  | _ -> Alcotest.fail "single-tenant service should answer the query");
  let got = Serve.Service.submit_sql ~tenant:"acme" multi running_query in
  Alcotest.(check bool) "tenant answers as the single-tenant service" true
    (outcome_equal expected.Serve.Service.outcome got.Serve.Service.outcome)

let () =
  Alcotest.run "tenancy"
    [ ( "tenants",
        [ ("registry, unknown tenant, key-space separation", `Quick,
           test_tenant_registry);
          QCheck_alcotest.to_alcotest prop_cross_tenant_isolation;
          ("per-tenant invalidation with Deps predictions", `Quick,
           test_per_tenant_invalidation);
          ("own subjects, own recipient", `Quick, test_tenant_own_recipient)
        ] );
      ( "determinism",
        [ ("one stream at jobs {1,N}", `Slow, test_stream_determinism) ] ) ]
