(* Allocation of a cold TPC-H pass. Serves the 22 TPC-H queries under
   the paper's three scenarios (66 requests, sf 0.001) from one Service
   on one domain, as perfbench's tpch-cold does: a warm-up pass, then
   one pass after [Service.invalidate], so every request is planned,
   verified and executed. Prints the measured pass's words per query
   from [Gc.counters]:

   - gc.minor_words_per_query: words allocated in the minor heap;
   - gc.direct_major_words_per_query: words allocated directly in the
     major heap (major words less promoted ones), which is where OCaml
     puts every block over 256 words.

   Both counts are deterministic: they depend on the allocation
   sequence alone, not on timing. Run with
   [dune exec --profile release test/cold_alloc.exe]. *)

open Relalg
module S = Serve.Service

let sf = 0.001

let tables () =
  let data = Tpch.Tpch_data.generate ~sf () in
  List.map
    (fun (s : Schema.t) ->
      (s.Schema.name, Engine.Table.of_schema s (List.assoc s.Schema.name data)))
    Tpch.Tpch_schema.all

let () =
  let svc =
    S.create ~sharing:true
      ~policy:(Tpch.Scenarios.policy Tpch.Scenarios.UA)
      ~subjects:Tpch.Scenarios.subjects ~pricing:Tpch.Scenarios.pricing
      ~base:(Tpch.Tpch_schema.base_stats ~sf)
      ~deliver_to:Tpch.Scenarios.user ~udfs:Tpch.Tpch_queries.udf_impls
      ~tables:(tables ()) ()
  in
  List.iter
    (fun sc ->
      S.add_tenant svc ~id:(Tpch.Scenarios.name sc) ~policy:(Tpch.Scenarios.policy sc) ())
    Tpch.Scenarios.all;
  let requests =
    List.concat_map
      (fun sc ->
        List.map (fun (q, _, _) -> (Tpch.Scenarios.name sc, q)) Tpch.Tpch_queries.all)
      Tpch.Scenarios.all
  in
  let pass () =
    S.invalidate svc;
    List.iter
      (fun (tenant, q) -> ignore (S.submit ~tenant svc (Tpch.Tpch_queries.query q)))
      requests
  in
  pass ();
  let minor0, promoted0, major0 = Gc.counters () in
  pass ();
  let minor1, promoted1, major1 = Gc.counters () in
  let n = float_of_int (List.length requests) in
  Printf.printf "queries %d\n" (List.length requests);
  Printf.printf "gc.minor_words_per_query %.0f\n" ((minor1 -. minor0) /. n);
  Printf.printf "gc.direct_major_words_per_query %.0f\n"
    ((major1 -. major0 -. (promoted1 -. promoted0)) /. n)
