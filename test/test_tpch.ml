(* TPC-H substrate: generator sanity, all 22 query plans build and
   execute, and the three authorization scenarios plan + verify on every
   query. A couple of queries additionally run end-to-end over ciphertext
   and must match their plaintext execution. *)

open Relalg

let sf = 0.001
let data = lazy (Tpch.Tpch_data.generate ~sf ())

let tables () =
  List.map
    (fun s ->
      ( s.Schema.name,
        Engine.Table.of_schema s (List.assoc s.Schema.name (Lazy.force data))
      ))
    Tpch.Tpch_schema.all

(* --- generator -------------------------------------------------------- *)

let test_generator_cardinalities () =
  let d = Lazy.force data in
  let card name = List.length (List.assoc name d) in
  Alcotest.(check int) "regions" 5 (card "region");
  Alcotest.(check int) "nations" 25 (card "nation");
  Alcotest.(check int) "suppliers" 10 (card "supplier");
  Alcotest.(check int) "parts" 200 (card "part");
  Alcotest.(check int) "partsupp = 4x parts" 800 (card "partsupp");
  Alcotest.(check int) "customers" 150 (card "customer");
  Alcotest.(check int) "orders" 1500 (card "orders");
  Alcotest.(check bool) "lineitems ≈ 4x orders" true
    (let l = card "lineitem" in
     l > 1500 && l < 1500 * 8)

let test_generator_foreign_keys () =
  let d = Lazy.force data in
  let ints rel col =
    let schema =
      List.find (fun s -> s.Schema.name = rel) Tpch.Tpch_schema.all
    in
    let t = Engine.Table.of_schema schema (List.assoc rel d) in
    List.map
      (fun row ->
        match Engine.Table.value t row (Attr.make col) with
        | Value.Int i -> i
        | v -> Alcotest.failf "expected int, got %s" (Value.to_string v))
      (Engine.Table.rows t)
  in
  let in_range lo hi = List.for_all (fun v -> v >= lo && v <= hi) in
  Alcotest.(check bool) "l_orderkey in range" true
    (in_range 1 1500 (ints "lineitem" "l_orderkey"));
  Alcotest.(check bool) "o_custkey in range" true
    (in_range 1 150 (ints "orders" "o_custkey"));
  Alcotest.(check bool) "ps_suppkey in range" true
    (in_range 1 10 (ints "partsupp" "ps_suppkey"));
  Alcotest.(check bool) "n_regionkey in range" true
    (in_range 0 4 (ints "nation" "n_regionkey"))

let test_generator_deterministic () =
  let d1 = Tpch.Tpch_data.generate ~sf:0.0005 () in
  let d2 = Tpch.Tpch_data.generate ~sf:0.0005 () in
  Alcotest.(check bool) "same seed, same data" true (d1 = d2)

let test_generator_dates_in_range () =
  let d = Lazy.force data in
  let schema = Tpch.Tpch_schema.orders in
  let t = Engine.Table.of_schema schema (List.assoc "orders" d) in
  let lo = Tpch.Tpch_data.start_date and hi = Tpch.Tpch_data.end_date in
  Alcotest.(check bool) "order dates within [1992, 1998-08-02]" true
    (List.for_all
       (fun row ->
         let v = Engine.Table.value t row (Attr.make "o_orderdate") in
         Value.compare lo v <= 0 && Value.compare v hi <= 0)
       (Engine.Table.rows t))

(* --- all 22 queries build, estimate, execute -------------------------- *)

let test_queries_build () =
  List.iter
    (fun (n, _, build) ->
      let plan = build () in
      Alcotest.(check bool)
        (Printf.sprintf "Q%d non-trivial" n)
        true
        (Plan.size plan > 3);
      (* profiles computable: no Not_executable on the original plan *)
      ignore (Authz.Profile.of_plan plan))
    Tpch.Tpch_queries.all

let test_queries_execute_plain () =
  let ctx =
    Engine.Exec.context ~udfs:Tpch.Tpch_queries.udf_impls (tables ())
  in
  List.iter
    (fun (n, _, build) ->
      let result = Engine.Exec.run ctx (build ()) in
      (* every query returns a well-formed table; most are non-empty at
         this scale but highly selective ones may legitimately be empty *)
      Alcotest.(check bool)
        (Printf.sprintf "Q%d executes" n)
        true
        (Engine.Table.cardinality result >= 0))
    Tpch.Tpch_queries.all

let test_enough_queries_nonempty () =
  let ctx =
    Engine.Exec.context ~udfs:Tpch.Tpch_queries.udf_impls (tables ())
  in
  let nonempty =
    List.filter
      (fun (_, _, build) ->
        Engine.Table.cardinality (Engine.Exec.run ctx (build ())) > 0)
      Tpch.Tpch_queries.all
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d/22 queries non-empty" (List.length nonempty))
    true
    (List.length nonempty >= 15)

(* --- scenarios plan and verify on all queries ------------------------- *)

let test_scenarios_plan_all () =
  List.iter
    (fun (n, _, build) ->
      List.iter
        (fun sc ->
          let r = Tpch.Scenarios.optimize ~scenario:sc (build ()) in
          (match
             Authz.Extend.verify
               ~policy:(Tpch.Scenarios.policy sc)
               r.Planner.Optimizer.extended
           with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "Q%d %s: %s" n (Tpch.Scenarios.name sc) e);
          (* the independent static verifier must agree: zero Error
             diagnostics on every optimizer-produced plan *)
          let diags =
            Verify.Verifier.run
              { Verify.Verifier.policy = Tpch.Scenarios.policy sc;
                config = r.Planner.Optimizer.config;
                extended = r.Planner.Optimizer.extended;
                clusters = r.Planner.Optimizer.clusters;
                requests = r.Planner.Optimizer.requests }
          in
          if Verify.Diag.has_errors diags then
            Alcotest.failf "Q%d %s: static verifier found errors:\n%s" n
              (Tpch.Scenarios.name sc)
              (Verify.Diag.render (Verify.Diag.errors diags));
          Alcotest.(check bool)
            (Printf.sprintf "Q%d %s positive cost" n (Tpch.Scenarios.name sc))
            true
            (Planner.Cost.total r.Planner.Optimizer.cost > 0.0))
        Tpch.Scenarios.all)
    Tpch.Tpch_queries.all

let test_scenario_ordering () =
  (* cumulative: UA >= UAPenc >= UAPmix (more options never cost more) *)
  let total sc =
    List.fold_left
      (fun acc (_, _, build) ->
        let r = Tpch.Scenarios.optimize ~scenario:sc (build ()) in
        let ua = Tpch.Scenarios.optimize ~scenario:Tpch.Scenarios.UA (build ()) in
        acc
        +. (Planner.Cost.total r.Planner.Optimizer.cost
           /. Planner.Cost.total ua.Planner.Optimizer.cost))
      0.0 Tpch.Tpch_queries.all
  in
  let ua = total Tpch.Scenarios.UA in
  let enc = total Tpch.Scenarios.UAPenc in
  let mix = total Tpch.Scenarios.UAPmix in
  Alcotest.(check bool) "UAPenc <= UA" true (enc <= ua +. 1e-6);
  Alcotest.(check bool) "UAPmix <= UAPenc" true (mix <= enc +. 1e-6);
  Alcotest.(check bool) "UAPenc saves at least 30%" true (enc /. ua < 0.7);
  Alcotest.(check bool) "UAPmix saves at least 50%" true (mix /. ua < 0.5)

(* --- encrypted execution equivalence ---------------------------------- *)

let test_encrypted_execution_matches f n =
  let plan = Tpch.Tpch_queries.query n in
  let ctx_plain =
    Engine.Exec.context ~udfs:Tpch.Tpch_queries.udf_impls (tables ())
  in
  let expected = Engine.Exec.run ctx_plain plan in
  (* plan under UAPenc at the same scale, then execute the extended plan *)
  let r =
    Tpch.Scenarios.optimize ~sf ~fold_leaf_filters:false
      ~scenario:Tpch.Scenarios.UAPenc plan
  in
  let keyring = Mpq_crypto.Keyring.create ~seed:99L () in
  let crypto = Engine.Enc_exec.make keyring r.Planner.Optimizer.clusters in
  let ctx =
    Engine.Exec.context ~udfs:Tpch.Tpch_queries.udf_impls ~crypto (tables ())
  in
  let actual =
    Engine.Exec.run ctx r.Planner.Optimizer.extended.Authz.Extend.plan
  in
  Alcotest.(check bool)
    (Printf.sprintf "Q%d encrypted = plain (%d rows)" n
       (Engine.Table.cardinality expected))
    true
    (f expected actual)

let bag_equal = Engine.Table.equal_bag

(* --- sealed columns ------------------------------------------------ *)

(* All 22 queries x 3 scenarios, once, with the result rows and CSV read:
   the sealed/materialized counters of each scheme, and every node table
   that holds a sealed column with its byte count. *)
let sealed_run =
  lazy
    (Obs.reset ();
     Obs.set_enabled true;
     Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ())
     @@ fun () ->
     let nodes = ref [] in
     let sealed = function Column.Sealed _ -> true | _ -> false in
     let hook _ t =
       if Array.exists sealed (Engine.Table.columns t) then
         nodes := (t, Engine.Table.byte_size t) :: !nodes
     in
     List.iter
       (fun (q, _, _) ->
         List.iter
           (fun sc ->
             let r =
               Tpch.Scenarios.optimize ~sf ~fold_leaf_filters:false ~scenario:sc
                 (Tpch.Tpch_queries.query q)
             in
             let keyring = Mpq_crypto.Keyring.create ~seed:99L () in
             let crypto = Engine.Enc_exec.make keyring r.Planner.Optimizer.clusters in
             let ctx =
               Engine.Exec.context ~udfs:Tpch.Tpch_queries.udf_impls ~crypto (tables ())
             in
             let result =
               Engine.Exec.run_with_hook ctx ~hook
                 r.Planner.Optimizer.extended.Authz.Extend.plan
             in
             ignore (Engine.Table.rows result);
             ignore (Engine.Csv.to_string result))
           Tpch.Scenarios.all)
       Tpch.Tpch_queries.all;
     let counts =
       List.concat_map
         (fun scheme ->
           List.map
             (fun what ->
               let name = "enc_exec." ^ scheme ^ "." ^ what in
               (name, Obs.counter name))
             [ "sealed"; "materialized" ])
         [ "det"; "ope"; "rnd" ]
     in
     let counter scheme what = List.assoc ("enc_exec." ^ scheme ^ "." ^ what) counts in
     (counter, List.rev !nodes))

(* Over all 22 queries x 3 scenarios, columns under [schemes] are
   sealed and no operator, result row or CSV export ever needs their
   bytes: the served path never runs their cipher. Every node holding
   one weighs what its materialized table would. *)
let test_never_read schemes () =
  let counter, nodes = Lazy.force sealed_run in
  List.iter
    (fun scheme ->
      Alcotest.(check bool) (scheme ^ " cells sealed") true (counter scheme "sealed" > 0);
      Alcotest.(check int) (scheme ^ " cells materialized") 0
        (counter scheme "materialized"))
    schemes;
  let holds t =
    Array.exists
      (function Column.Sealed s -> List.mem s.Column.scheme schemes | _ -> false)
      (Engine.Table.columns t)
  in
  let nodes = List.filter (fun (t, _) -> holds t) nodes in
  Alcotest.(check bool) "some node holds a sealed column" true (nodes <> []);
  List.iter
    (fun (t, bytes) ->
      let materialized =
        Engine.Table.of_columns ~nrows:(Engine.Table.cardinality t)
          (Engine.Table.attrs t)
          (Array.map
             (fun c -> Column.Values (Column.to_values c))
             (Engine.Table.columns t))
      in
      Alcotest.(check int) "byte size" (Engine.Table.byte_size materialized) bytes)
    nodes

let () =
  Alcotest.run "tpch"
    [ ( "generator",
        [ ("cardinalities", `Quick, test_generator_cardinalities);
          ("foreign keys in range", `Quick, test_generator_foreign_keys);
          ("deterministic", `Quick, test_generator_deterministic);
          ("dates in range", `Quick, test_generator_dates_in_range) ] );
      ( "queries",
        [ ("all 22 build", `Quick, test_queries_build);
          ("all 22 execute", `Quick, test_queries_execute_plain);
          ("most queries non-empty", `Quick, test_enough_queries_nonempty) ] );
      ( "scenarios",
        [ ("plan + verify all 22 x 3", `Slow, test_scenarios_plan_all);
          ("scenario cost ordering", `Slow, test_scenario_ordering) ] );
      ( "encrypted-execution",
        List.map
          (fun (q, _, _) ->
            ( Printf.sprintf "Q%d over ciphertext" q,
              `Slow,
              fun () -> test_encrypted_execution_matches bag_equal q ))
          Tpch.Tpch_queries.all );
      ( "sealed-rnd",
        [ ("22 x 3: rnd never read", `Slow, test_never_read [ "rnd" ]) ] );
      ( "sealed-det-ope",
        [ ("22 x 3: det and OPE never read", `Slow, test_never_read [ "det"; "ope" ]) ]
      ) ]
