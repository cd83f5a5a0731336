(* The parallel-execution subsystem: pool mechanics (reuse, exception
   propagation) plus the differential property the whole design hangs
   on — running any plan, extended or not, on a domain pool produces a
   result byte-identical to the sequential run: same attributes, same
   rows in the same order, same ciphertext bytes. Exercised over random
   plans at 2 and 4 domains, and over the full TPC-H suite (every query
   x every scenario) at [MPQ_JOBS] domains. *)

open Relalg
open Engine

let jobs_env =
  match Sys.getenv_opt "MPQ_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 4)
  | None -> 4

(* --- pool unit tests -------------------------------------------------- *)

let test_pool_reuse () =
  let pool = Par.create ~name:"t" 3 in
  Alcotest.(check int) "size" 3 (Par.size pool);
  (* several batches through the same pool: workers are spawned once and
     must survive across batches *)
  for round = 1 to 5 do
    let n = 50 * round in
    let expected = List.init n (fun i -> i * i) in
    let got = Par.run_all pool (List.init n (fun i () -> i * i)) in
    Alcotest.(check (list int)) "batch results in order" expected got
  done;
  let a, b = Par.both pool (fun () -> "left") (fun () -> 42) in
  Alcotest.(check string) "both left" "left" a;
  Alcotest.(check int) "both right" 42 b;
  Par.shutdown pool;
  Par.shutdown pool (* idempotent *)

let test_pool_exception () =
  let pool = Par.create ~name:"t" 4 in
  let ran = Array.make 8 false in
  (* the first failing task (in input order) is what the submitter sees,
     and the batch still settles: every task runs *)
  (match
     Par.run_all pool
       (List.init 8 (fun i () ->
            ran.(i) <- true;
            if i = 3 || i = 5 then failwith (Printf.sprintf "task %d" i);
            i))
   with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg ->
      Alcotest.(check string) "first failure in input order" "task 3" msg);
  Alcotest.(check bool) "whole batch settled" true
    (Array.for_all (fun x -> x) ran);
  (* the pool survives a failed batch *)
  let got = Par.run_all pool (List.init 10 (fun i () -> i + 1)) in
  Alcotest.(check (list int)) "usable after failure"
    (List.init 10 (fun i -> i + 1))
    got;
  Par.shutdown pool

let test_with_pool () =
  Par.with_pool 1 (fun pool ->
      Alcotest.(check bool) "jobs<=1 runs inline" true (pool = None));
  Par.with_pool 3 (fun pool ->
      match pool with
      | None -> Alcotest.fail "expected a pool"
      | Some p ->
          Alcotest.(check (list int)) "map_ranges order"
            (List.init 100 (fun i -> 2 * i))
            (List.concat
               (Par.map_ranges p ~chunk:7
                  ~f:(fun start len -> List.init len (fun k -> 2 * (start + k)))
                  100)))

let test_map_ranges_offsets () =
  Par.with_pool 4 (fun pool ->
      let p = Option.get pool in
      (* each range's start is its offset in the input, and the ranges
         tile the input in order: the executor keys derived randomness
         on those offsets *)
      let ranges = Par.map_ranges p ~chunk:64 ~f:(fun start len -> (start, len)) 500 in
      List.iter
        (fun (_, len) ->
          Alcotest.(check bool) "1..64 indices per range" true (len >= 1 && len <= 64))
        ranges;
      Alcotest.(check (list int)) "ranges tile the input in order" (List.init 500 Fun.id)
        (List.concat_map (fun (start, len) -> List.init len (fun k -> start + k)) ranges);
      Alcotest.(check (list int)) "empty input, no range" []
        (Par.map_ranges p ~f:(fun start _ -> start) 0))

(* --- differential property: parallel = sequential --------------------- *)

(* random tables for Gen's catalog, as in test_exec_equiv *)
let gen_tables st =
  let int () = Value.Int (QCheck.Gen.int_bound 120 st) in
  let str () =
    Value.Str (List.nth [ "ga"; "bu"; "zo"; "meu" ] (QCheck.Gen.int_bound 3 st))
  in
  let rows n mk = List.init n (fun _ -> mk ()) in
  let t1 =
    Table.of_schema Gen.rel1
      (rows (3 + QCheck.Gen.int_bound 12 st) (fun () ->
           [| int (); int (); str (); int () |]))
  in
  let t2 =
    Table.of_schema Gen.rel2
      (rows (3 + QCheck.Gen.int_bound 12 st) (fun () ->
           [| int (); int (); str () |]))
  in
  let t3 =
    Table.of_schema Gen.rel3
      (rows (3 + QCheck.Gen.int_bound 8 st) (fun () -> [| int (); int () |]))
  in
  [ ("R1", t1); ("R2", t2); ("R3", t3) ]

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

(* header, row order and every value — ciphertext payloads included *)
let byte_identical a b =
  List.equal Attr.equal (Table.attrs a) (Table.attrs b)
  && List.equal
       (fun (r1 : Value.t array) r2 -> r1 = r2)
       (Table.rows a) (Table.rows b)

let gen_diff_case =
  QCheck.Gen.(
    Gen.gen_extended >>= fun case ->
    fun st -> (case, gen_tables st))

(* shared pools: spawned once for the whole property, so the 2x150
   parallel runs also stress batch-after-batch reuse *)
let pool2 = lazy (Par.create ~name:"test2" 2)
let pool4 = lazy (Par.create ~name:"test4" 4)

let prop_parallel_identical =
  QCheck.Test.make ~count:150
    ~name:"pooled run (2 and 4 domains) byte-identical to sequential"
    (QCheck.make
       ~print:(fun ((c : Gen.extended_case), _) ->
         Plan_printer.to_ascii c.Gen.executable)
       gen_diff_case)
    (fun (case, tables) ->
      let ctx () =
        (* fresh keyring per run: randomness is derived from (node, row)
           position, so equal seeds must give equal ciphertexts *)
        let keyring = Mpq_crypto.Keyring.create ~seed:123L () in
        let crypto = Enc_exec.make keyring case.Gen.clusters in
        Exec.context ~udfs:udf_impls ~crypto tables
      in
      let seq = Exec.run (ctx ()) case.Gen.executable in
      let check pool tag =
        let par = Exec.run ~pool (ctx ()) case.Gen.executable in
        if byte_identical seq par then true
        else
          QCheck.Test.fail_reportf
            "%s run differs from sequential:\nsequential:\n%s\nparallel:\n%s"
            tag (Table.to_string seq) (Table.to_string par)
      in
      check (Lazy.force pool2) "2-domain" && check (Lazy.force pool4) "4-domain")

(* --- hook post-order determinism -------------------------------------- *)

let test_hook_determinism () =
  (* both join sides deep enough (> 2 nodes) that the executor runs them
     concurrently under a pool *)
  let side schema att v =
    Plan.select
      (Predicate.conj [ Predicate.Cmp_const (Attr.make att, Predicate.Ge, v) ])
      (Plan.project (Schema.attrs schema) (Plan.base schema))
  in
  let l = side Gen.rel1 "a" (Value.Int 0) in
  let r = side Gen.rel2 "e" (Value.Int 0) in
  let plan =
    Plan.order_by
      [ (Attr.make "b", Plan.Asc) ]
      (Plan.join
         (Predicate.conj
            [ Predicate.Cmp_attr (Attr.make "a", Predicate.Eq, Attr.make "e") ])
         l r)
  in
  let tables =
    [ ("R1",
       Table.of_schema Gen.rel1
         (List.init 40 (fun i ->
              [| Value.Int (i mod 7); Value.Int i; Value.Str "ga";
                 Value.Int (i * 3) |])));
      ("R2",
       Table.of_schema Gen.rel2
         (List.init 30 (fun i ->
              [| Value.Int (i mod 7); Value.Int i; Value.Str "bu" |]))) ]
  in
  let trace pool =
    let log = ref [] in
    let hook n t = log := (Plan.id n, Table.cardinality t) :: !log in
    let result = Exec.run_with_hook ?pool (Exec.context tables) ~hook plan in
    (result, List.rev !log)
  in
  let seq, seq_log = trace None in
  Par.with_pool 4 (fun pool ->
      let par, par_log = trace pool in
      Alcotest.(check bool) "same table" true (byte_identical seq par);
      Alcotest.(check (list (pair int int)))
        "hook order independent of jobs" seq_log par_log);
  Alcotest.(check bool) "log covers every node" true
    (List.length seq_log = Plan.size plan)

(* --- named column-lookup errors --------------------------------------- *)

let test_unknown_attribute () =
  let t = Table.create [ Attr.make "a" ] [ [| Value.Int 1 |] ] in
  (match Table.col_index t (Attr.make "zz") with
  | _ -> Alcotest.fail "expected Unknown_attribute"
  | exception Table.Unknown_attribute { attr; columns } ->
      Alcotest.(check string) "names the attribute" "zz" attr;
      Alcotest.(check (list string)) "carries the header" [ "a" ] columns);
  (* through the executor it surfaces as an Exec_error with the operator
     tag, not a bare Not_found *)
  let schema =
    Schema.make ~name:"L" ~owner:"H" [ ("a", Schema.Tint); ("b", Schema.Tint) ]
  in
  let ctx = Exec.context [ ("L", t) ] in
  (match Exec.run ctx (Plan.base schema) with
  | _ -> Alcotest.fail "expected Exec_error"
  | exception Exec.Exec_error msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "message names attribute and columns: %s" msg)
        true
        (contains msg "unknown attribute b" && contains msg "a"))

(* --- TPC-H: every query, every scenario ------------------------------- *)

let test_tpch_byte_identity () =
  let sf = 0.0005 in
  let data = Tpch.Tpch_data.generate ~sf () in
  let tables =
    List.map
      (fun (s : Schema.t) ->
        (s.Schema.name, Table.of_schema s (List.assoc s.Schema.name data)))
      Tpch.Tpch_schema.all
  in
  let queries = List.map (fun (q, _, _) -> q) Tpch.Tpch_queries.all in
  let pool =
    if jobs_env > 1 then Some (Par.create ~name:"tpch" jobs_env) else None
  in
  Planner.Optimizer.self_check := false;
  List.iter
    (fun q ->
      List.iter
        (fun sc ->
          let r =
            Tpch.Scenarios.optimize ~sf ~fold_leaf_filters:false ~scenario:sc
              (Tpch.Tpch_queries.query q)
          in
          let plan = r.Planner.Optimizer.extended.Authz.Extend.plan in
          let ctx () =
            let keyring = Mpq_crypto.Keyring.create ~seed:42L () in
            let crypto = Enc_exec.make keyring r.Planner.Optimizer.clusters in
            Exec.context ~udfs:Tpch.Tpch_queries.udf_impls ~crypto tables
          in
          let seq = Exec.run (ctx ()) plan in
          let par = Exec.run ?pool (ctx ()) plan in
          Alcotest.(check bool)
            (Printf.sprintf "q%d %s byte-identical at %d jobs" q
               (Tpch.Scenarios.name sc) jobs_env)
            true (byte_identical seq par))
        Tpch.Scenarios.all)
    queries;
  Option.iter Par.shutdown pool

let () =
  let shutdown_shared () =
    if Lazy.is_val pool2 then Par.shutdown (Lazy.force pool2);
    if Lazy.is_val pool4 then Par.shutdown (Lazy.force pool4)
  in
  Fun.protect ~finally:shutdown_shared @@ fun () ->
  Alcotest.run "par"
    [ ( "pool",
        [ ("reuse across batches", `Quick, test_pool_reuse);
          ("exception propagation", `Quick, test_pool_exception);
          ("with_pool", `Quick, test_with_pool);
          ("map_ranges offsets", `Quick, test_map_ranges_offsets) ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_parallel_identical;
          ("hook post-order determinism", `Quick, test_hook_determinism) ] );
      ( "errors",
        [ ("unknown attribute is named", `Quick, test_unknown_attribute) ] );
      ( "tpch",
        [ ("22 queries x 3 scenarios byte-identical", `Slow,
           test_tpch_byte_identity) ] ) ]
