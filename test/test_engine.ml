(* Execution-engine tests: operators over plaintext, and end-to-end
   equivalence between the original plan and its minimally extended
   variants executed over ciphertext (running example, Fig. 7). *)

open Relalg
open Authz
open Engine
open Paper_example

let tables = Test_engine_data.tables
let expected = Test_engine_data.expected
let v_str = Test_engine_data.v_str
let v_int = Test_engine_data.v_int

let run_plain () =
  let n = build_plan () in
  let ctx = Exec.context (tables ()) in
  Exec.run ctx n.plan

let test_plain () =
  let result = run_plain () in
  Alcotest.(check bool)
    "plain execution matches hand computation" true
    (Table.equal_bag result (expected ()))

let run_extended assignment_of =
  let n = build_plan () in
  let config = Opreq.resolve_conflicts Opreq.default n.plan in
  let ext =
    Extend.extend ~policy ~config ~assignment:(assignment_of n)
      ~deliver_to:u n.plan
  in
  let keyring = Mpq_crypto.Keyring.create ~seed:7L () in
  let clusters = Plan_keys.compute ~config ~original:n.plan ext in
  let crypto = Enc_exec.make keyring clusters in
  let ctx = Exec.context ~crypto (tables ()) in
  (ext, Exec.run ctx ext.Extend.plan, ctx)

let test_extended_7a () =
  let _, result, _ = run_extended assignment_7a in
  Alcotest.(check bool)
    "7(a) over ciphertext = plain result" true
    (Table.equal_bag result (expected ()))

let test_extended_7b () =
  let _, result, _ = run_extended assignment_7b in
  Alcotest.(check bool)
    "7(b) over ciphertext = plain result" true
    (Table.equal_bag result (expected ()))

let extended_7a () =
  let n = build_plan () in
  let config = Opreq.resolve_conflicts Opreq.default n.plan in
  let ext =
    Extend.extend ~policy ~config ~assignment:(assignment_7a n) ~deliver_to:u
      n.plan
  in
  (config, ext, Plan_keys.compute ~config ~original:n.plan ext)

(* 7(a) through the distributed runtime, whose hook runs the release
   check on every node's table *)
let test_monitor_clean () =
  let config, ext, clusters = extended_7a () in
  let outcome =
    Distsim.Runtime.execute ~policy ~pki:(Distsim.Pki.create ())
      ~keyring:(Mpq_crypto.Keyring.create ~seed:7L ())
      ~user:u ~tables:(tables ()) ~config ~extended:ext ~clusters ()
  in
  (match outcome.Distsim.Runtime.status with
  | Distsim.Runtime.Completed result ->
      Alcotest.(check bool) "result ok" true
        (Table.equal_bag result (expected ()))
  | Distsim.Runtime.Degraded d -> Alcotest.failf "degraded: %s" d.reason);
  Alcotest.(check bool)
    "some cross-subject transfers were checked" true
    (List.exists
       (function Distsim.Runtime.Release_check _ -> true | _ -> false)
       outcome.Distsim.Runtime.trace)

(* The consistency audit scans one column per attribute: a typed
   (plaintext) column profiled encrypted, a ciphertext column profiled
   plaintext and a column mixing both are each named *)
let test_monitor_consistency () =
  let enc = Value.Enc { Value.scheme = "det"; key_id = "k"; payload = "p" } in
  let t =
    Table.create
      [ Attr.make "p"; Attr.make "e"; Attr.make "m"; Attr.make "n" ]
      [ [| v_int 1; enc; enc; Value.Null |]; [| v_int 2; enc; v_int 3; Value.Null |] ]
  in
  let check ~vp ~ve expected =
    Alcotest.(check (option string)) (String.concat "," ve) expected
      (Test_engine_data.mismatch (Profile.make ~vp ~ve ()) t)
  in
  check ~vp:[ "p"; "m"; "n" ] ~ve:[ "e" ] (Some "m mixed plaintext/ciphertext");
  check ~vp:[ "e" ] ~ve:[ "p"; "n" ]
    (Some "p plaintext but profiled encrypted; e encrypted but profiled plaintext; \
           m mixed plaintext/ciphertext")

(* Hand-build a "bad" extension: keep 7(a)'s assignment but claim every
   node's profile is all plaintext, as if the encryption of S were
   skipped. *)
let bad_extension () =
  let _, ext, clusters = extended_7a () in
  let bad_profiles = Hashtbl.copy ext.Extend.profiles in
  Hashtbl.iter
    (fun id (p : Profile.t) ->
      let all = Attr.Set.union p.Profile.vp p.Profile.ve in
      Hashtbl.replace bad_profiles id
        { p with Profile.vp = all; Profile.ve = Attr.Set.empty })
    ext.Extend.profiles;
  ({ ext with Extend.profiles = bad_profiles }, clusters)

let test_monitor_catches_unauthorized () =
  let bad_ext, _ = bad_extension () in
  match Extend.verify ~policy bad_ext with
  | Ok () -> Alcotest.fail "expected verification failure"
  | Error _ -> ()

(* The runtime release check refuses the same extension at its first
   cross-subject edge, naming the violated condition; a node the
   assignment leaves out is refused, not looked up into [Not_found]. *)
let test_runtime_refuses_unauthorized () =
  let bad_ext, clusters = bad_extension () in
  let plan = bad_ext.Extend.plan in
  let parent = Hashtbl.create 32 in
  Plan.iter
    (fun n ->
      List.iter (fun c -> Hashtbl.replace parent (Plan.id c) n) (Plan.children n))
    plan;
  let executor n = Imap.find (Plan.id n) bad_ext.Extend.assignment in
  let receiver n =
    match Hashtbl.find_opt parent (Plan.id n) with
    | Some p when not (Subject.equal (executor n) (executor p)) -> Some p
    | _ -> None
  in
  (* the nodes the hook saw, newest first, and the refusal *)
  let run ext =
    let check = Distsim.Runtime.check_node ~policy ext in
    let seen = ref [] in
    let hook n t =
      seen := n :: !seen;
      ignore (check n t)
    in
    let crypto =
      Enc_exec.make (Mpq_crypto.Keyring.create ~seed:7L ()) clusters
    in
    match Exec.run_with_hook (Exec.context ~crypto (tables ())) ~hook plan with
    | _ -> Alcotest.fail "expected Distributed_violation"
    | exception Distsim.Runtime.Distributed_violation m -> (!seen, m)
  in
  let seen, msg = run bad_ext in
  let refused = List.hd seen in
  Alcotest.(check bool) "no earlier edge crossed subjects" true
    (List.for_all (fun n -> receiver n = None) (List.tl seen));
  (match receiver refused with
  | None -> Alcotest.failf "refused inside one subject: %s" msg
  | Some p ->
      Alcotest.(check string) "the refusal names the violated condition"
        (Printf.sprintf
           "%s refuses to release node %d to %s: no plaintext visibility of S"
           (Subject.name (executor refused)) (Plan.id refused)
           (Subject.name (executor p)))
        msg);
  let first = Plan.id (List.nth seen (List.length seen - 1)) in
  let unassigned =
    { bad_ext with
      Extend.assignment = Imap.remove first bad_ext.Extend.assignment }
  in
  Alcotest.(check string) "an unassigned node is refused"
    (Printf.sprintf "node %d has no executor" first)
    (snd (run unassigned))

(* --- small operator-level checks ---------------------------------- *)

let test_join_hash_vs_nested () =
  let l = Table.create [ Attr.make "a"; Attr.make "b" ]
      [ [| v_int 1; v_str "x" |]; [| v_int 2; v_str "y" |]; [| v_int 2; v_str "z" |] ]
  in
  let r = Table.create [ Attr.make "c"; Attr.make "d" ]
      [ [| v_int 2; v_int 10 |]; [| v_int 3; v_int 20 |]; [| v_int 2; v_int 30 |] ]
  in
  let la = Plan.base (Schema.make ~name:"L" ~owner:"H" [ ("a", Schema.Tint); ("b", Schema.Tstring) ]) in
  let ra = Plan.base (Schema.make ~name:"R" ~owner:"H" [ ("c", Schema.Tint); ("d", Schema.Tint) ]) in
  let plan = Plan.join (Predicate.conj [ Predicate.Cmp_attr (Attr.make "a", Predicate.Eq, Attr.make "c") ]) la ra in
  let ctx = Exec.context [ ("L", l); ("R", r) ] in
  let result = Exec.run ctx plan in
  Alcotest.(check int) "2x2 matches" 4 (Table.cardinality result)

let test_group_by_aggregates () =
  let t = Table.create [ Attr.make "g"; Attr.make "v" ]
      [ [| v_str "a"; v_int 1 |]; [| v_str "a"; v_int 3 |]; [| v_str "b"; v_int 5 |] ]
  in
  let plan =
    Plan.group_by (Attr.Set.of_names [ "g" ])
      [ Aggregate.make (Aggregate.Sum (Attr.make "v")) ]
      (Plan.base (Schema.make ~name:"T" ~owner:"H" [ ("g", Schema.Tstring); ("v", Schema.Tint) ]))
  in
  let result = Exec.run (Exec.context [ ("T", t) ]) plan in
  let expected =
    Table.create [ Attr.make "g"; Attr.make "v" ]
      [ [| v_str "a"; v_int 4 |]; [| v_str "b"; v_int 5 |] ]
  in
  Alcotest.(check bool) "sums" true (Table.equal_bag result expected)

let test_order_by_limit () =
  let t = Table.create [ Attr.make "g"; Attr.make "v" ]
      [ [| v_str "a"; v_int 3 |]; [| v_str "b"; v_int 1 |]; [| v_str "c"; v_int 2 |] ]
  in
  let schema = Schema.make ~name:"T" ~owner:"H" [ ("g", Schema.Tstring); ("v", Schema.Tint) ] in
  let plan = Plan.limit 2 (Plan.order_by [ (Attr.make "v", Plan.Desc) ] (Plan.base schema)) in
  let result = Exec.run (Exec.context [ ("T", t) ]) plan in
  Alcotest.(check int) "two rows" 2 (Table.cardinality result);
  match Table.rows result with
  | [ r1; r2 ] ->
      Alcotest.(check bool) "descending" true
        (Value.compare r1.(1) r2.(1) > 0);
      Alcotest.(check bool) "top value is 3" true (Value.equal r1.(1) (v_int 3))
  | _ -> Alcotest.fail "unexpected shape"

let test_order_by_over_ope () =
  (* sorting over OPE ciphertext orders like the plaintext *)
  let keyring = Mpq_crypto.Keyring.create ~seed:3L () in
  let crypto = Enc_exec.of_schemes keyring [ ("v", Mpq_crypto.Scheme.Ope) ] in
  let t = Table.create [ Attr.make "v" ]
      [ [| v_int 30 |]; [| v_int 10 |]; [| v_int 20 |] ]
  in
  let schema = Schema.make ~name:"T" ~owner:"H" [ ("v", Schema.Tint) ] in
  let plan =
    Plan.decrypt (Attr.Set.of_names [ "v" ])
      (Plan.order_by [ (Attr.make "v", Plan.Asc) ]
         (Plan.encrypt (Attr.Set.of_names [ "v" ]) (Plan.base schema)))
  in
  let result = Exec.run (Exec.context ~crypto [ ("T", t) ]) plan in
  Alcotest.(check bool) "sorted ascending" true
    (List.map (fun r -> r.(0)) (Table.rows result)
    = [ v_int 10; v_int 20; v_int 30 ])

(* Regression: a table carries its row count, so a projection onto no
   columns keeps its cardinality. Taking the count from column 0 gave
   such a table zero rows, and count(star) over it no row at all. *)
let test_zero_column_count () =
  let t = Table.create [ Attr.make "v" ] [ [| v_int 1 |]; [| v_int 2 |]; [| v_int 3 |] ] in
  let none = Table.select_columns t [] in
  Alcotest.(check int) "projection keeps the rows" 3 (Table.cardinality none);
  let plan =
    Plan.group_by Attr.Set.empty
      [ Aggregate.make Aggregate.Count_star ]
      (Plan.base (Schema.make ~name:"E" ~owner:"H" []))
  in
  let result = Exec.run (Exec.context [ ("E", none) ]) plan in
  Alcotest.(check bool) "count(*) = 3" true
    (Table.rows result = [ [| v_int 3 |] ])

let () =
  Alcotest.run "engine"
    [ ( "running-example-exec",
        [ ("plain plan executes correctly", `Quick, test_plain);
          ("extended 7(a) over ciphertext", `Quick, test_extended_7a);
          ("extended 7(b) over ciphertext", `Quick, test_extended_7b);
          ("monitor: clean run has no violations", `Quick, test_monitor_clean);
          ( "verify rejects plaintext-leaking extension",
            `Quick,
            test_monitor_catches_unauthorized );
          ("monitor: consistency per column", `Quick, test_monitor_consistency);
          ( "runtime refuses the plaintext-leaking extension",
            `Quick,
            test_runtime_refuses_unauthorized ) ] );
      ( "operators",
        [ ("hash join", `Quick, test_join_hash_vs_nested);
          ("group-by sum", `Quick, test_group_by_aggregates);
          ("order-by + limit", `Quick, test_order_by_limit);
          ("order-by over OPE ciphertext", `Quick, test_order_by_over_ope);
          ("zero-column projection keeps its count", `Quick,
           test_zero_column_count) ] ) ]
