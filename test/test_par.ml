(* The domain pool's mechanics (reuse, exception propagation, a failed
   start) and the executor's hook contract: hooks see every node in
   post-order as soon as its table exists, and a raising hook stops the
   plan there. *)

open Relalg
open Engine

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
          Alcotest.(check (list int)) "run_all order"
            (List.init 100 (fun i -> 2 * i))
            (Par.run_all p (List.init 100 (fun i () -> 2 * i))))

let test_create_failure () =
  (* more domains than the runtime allows: the workers already spawned
     are joined, so a later pool can still start *)
  (match Par.create 1000 with
  | p ->
      Par.shutdown p;
      Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "message" "Par.create: cannot start 1000 domains"
        msg);
  let p = Par.create 2 in
  Alcotest.(check (list int)) "a later pool works" [ 1; 2 ]
    (Par.run_all p [ (fun () -> 1); (fun () -> 2) ]);
  Par.shutdown p

(* --- hooks ------------------------------------------------------------- *)

let r1_table n =
  Table.of_schema Gen.rel1
    (List.init n (fun i ->
         [| Value.Int (i mod 7); Value.Int i; Value.Str "ga"; Value.Int (i * 3) |]))

let test_hook_post_order () =
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
    [ ("R1", r1_table 40);
      ("R2",
       Table.of_schema Gen.rel2
         (List.init 30 (fun i ->
              [| Value.Int (i mod 7); Value.Int i; Value.Str "bu" |]))) ]
  in
  let rec post_order n = List.concat_map post_order (Plan.children n) @ [ Plan.id n ] in
  let log = ref [] in
  let hook n _ = log := Plan.id n :: !log in
  ignore (Exec.run_with_hook (Exec.context tables) ~hook plan);
  Alcotest.(check (list int)) "hooks in post-order over every node"
    (post_order plan) (List.rev !log)

let test_raising_hook () =
  (* the hook refuses the base table, so the udf above it never runs *)
  let calls = ref 0 in
  let udfs = [ ("count", fun vs -> incr calls; List.hd vs) ] in
  let a = Attr.make "a" in
  let plan = Plan.udf "count" (Attr.Set.singleton a) a (Plan.base Gen.rel1) in
  let hook n _ =
    match Plan.node n with Plan.Base _ -> failwith "refused" | _ -> ()
  in
  (match Exec.run_with_hook (Exec.context ~udfs [ ("R1", r1_table 10) ]) ~hook plan with
  | _ -> Alcotest.fail "expected the hook's exception"
  | exception Failure msg -> Alcotest.(check string) "propagates" "refused" msg);
  Alcotest.(check int) "udf never called" 0 !calls

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

let () =
  Alcotest.run "par"
    [ ( "pool",
        [ ("reuse across batches", `Quick, test_pool_reuse);
          ("exception propagation", `Quick, test_pool_exception);
          ("with_pool", `Quick, test_with_pool);
          ("a failed create joins its domains", `Quick, test_create_failure) ] );
      ( "differential",
        [ ("hook post-order determinism", `Quick, test_hook_post_order);
          ("a raising hook stops the plan", `Quick, test_raising_hook) ] );
      ( "errors",
        [ ("unknown attribute is named", `Quick, test_unknown_attribute) ] ) ]
