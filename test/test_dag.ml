(* Hash-consed plan DAGs (Planner.Dag) and the per-occurrence position
   arithmetic they force on consumers:

   1. interning — structurally equal plans collapse onto one physical
      representative; occurrence/sharing accounting is exact; the
      interned plan is equal_shape-identical to its input;
   2. collision resistance — near-colliding shapes (the attribute-set
      concatenations the length-prefixed fingerprints exist for) do
      NOT merge: a merge here would make the sub-plan result cache
      serve one query's bytes for a different query;
   3. crypto-free classification — the position-independence predicate
      that decides whether a cached subtree result may be reused at a
      different preorder position;
   4. positions under sharing — a physically shared node sits at
      several preorder positions; first-visit-wins id tables, the
      child_positions arithmetic, and — the regression that motivated
      threading positions through Exec — ciphertext bytes of a
      DAG-interned plan must be byte-identical to its tree-shaped
      original (per-occurrence randomness labels, not per-id). *)

open Relalg

let byte_identical a b =
  List.equal Attr.equal (Engine.Table.attrs a) (Engine.Table.attrs b)
  && List.equal
       (fun (r1 : Value.t array) r2 -> r1 = r2)
       (Engine.Table.rows a) (Engine.Table.rows b)

let r_schema =
  Schema.make ~name:"R" ~owner:"O"
    [ ("a", Schema.Tint); ("b", Schema.Tint); ("c", Schema.Tstring);
      ("d", Schema.Tint) ]

let r_table () =
  let strs = [| "ga"; "bu"; "zo"; "meu" |] in
  Engine.Table.of_schema r_schema
    (List.init 9 (fun i ->
         [| Value.Int (i mod 5); Value.Int (i mod 3); Value.Str strs.(i mod 4);
            Value.Int (7 - i) |]))

(* two structurally identical builds (fresh node ids each time) *)
let build_query () =
  Plan.limit 4
    (Plan.order_by
       [ (Attr.make "a", Plan.Asc) ]
       (Plan.select
          (Predicate.conj [ Predicate.Cmp_const (Attr.make "b", Predicate.Lt, Value.Int 2) ])
          (Plan.base r_schema)))

(* --- interning -------------------------------------------------------- *)

let test_intern_merges_equal_shapes () =
  let d = Planner.Dag.create () in
  let p1 = build_query () and p2 = build_query () in
  let i1 = Planner.Dag.intern d p1 in
  let i2 = Planner.Dag.intern d p2 in
  Alcotest.(check bool) "same physical representative" true (i1 == i2);
  Alcotest.(check bool) "interning preserves shape" true
    (Plan.equal_shape p1 i1);
  Alcotest.(check string) "memoized fingerprint = Fingerprint.of_plan"
    (Planner.Fingerprint.of_plan p1)
    (Planner.Dag.fingerprint d p1);
  Alcotest.(check int) "root seen twice" 2 (Planner.Dag.occurrences d i1);
  Alcotest.(check bool) "root is shared" true (Planner.Dag.is_shared d i1);
  let s = Planner.Dag.stats d in
  Alcotest.(check int) "plans" 2 s.Planner.Dag.plans;
  Alcotest.(check int) "distinct nodes" (Plan.size p1) s.Planner.Dag.nodes;
  Alcotest.(check int) "occurrences" (2 * Plan.size p1)
    s.Planner.Dag.occurrences;
  Alcotest.(check int) "every node shared" (Plan.size p1)
    s.Planner.Dag.shared_nodes;
  Alcotest.(check int) "materializations saved" (Plan.size p1)
    s.Planner.Dag.shared_occurrences;
  Planner.Dag.clear d;
  Alcotest.(check int) "clear empties the store" 0
    (Planner.Dag.stats d).Planner.Dag.nodes

let test_intern_splices_shared_subtree () =
  (* distinct tops over one structurally repeated core: after interning
     both, the second plan's core is physically the first's *)
  let d = Planner.Dag.create () in
  let core () =
    Plan.select
      (Predicate.conj [ Predicate.Cmp_const (Attr.make "a", Predicate.Ge, Value.Int 1) ])
      (Plan.base r_schema)
  in
  let q1 = Plan.order_by [ (Attr.make "b", Plan.Desc) ] (core ()) in
  let q2 = Plan.limit 3 (core ()) in
  let i1 = Planner.Dag.intern d q1 and i2 = Planner.Dag.intern d q2 in
  Alcotest.(check bool) "distinct roots stay distinct" false (i1 == i2);
  (match (Plan.children i1, Plan.children i2) with
  | [ c1 ], [ c2 ] ->
      Alcotest.(check bool) "shared core is one physical node" true (c1 == c2);
      Alcotest.(check int) "core occurrences" 2 (Planner.Dag.occurrences d c1)
  | _ -> Alcotest.fail "expected unary tops");
  Alcotest.(check bool) "roots unshared" false (Planner.Dag.is_shared d i1)

let test_near_collision_shapes_do_not_merge () =
  (* {ab} vs {a,b}: a naive set concatenation fingerprints both as
     "ab"; a merge would alias two different projections in the
     sub-plan result cache *)
  let schema =
    Schema.make ~name:"N" ~owner:"O"
      [ ("a", Schema.Tint); ("b", Schema.Tint); ("ab", Schema.Tint) ]
  in
  let d = Planner.Dag.create () in
  let proj names = Plan.project (Attr.Set.of_names names) (Plan.base schema) in
  let one = Planner.Dag.intern d (proj [ "ab" ]) in
  let two = Planner.Dag.intern d (proj [ "a"; "b" ]) in
  Alcotest.(check bool) "distinct representatives" false (one == two);
  Alcotest.(check bool) "distinct fingerprints" false
    (Planner.Dag.fingerprint d one = Planner.Dag.fingerprint d two);
  Alcotest.(check bool) "neither root shared" false
    (Planner.Dag.is_shared d one || Planner.Dag.is_shared d two);
  (* the common base below them is shared *)
  Alcotest.(check int) "base shared underneath" 2
    (Planner.Dag.occurrences d (Plan.base schema))

(* Re-interning shapes the store already holds (fresh node ids, as every
   re-parsed request has) must not grow it: only representatives are
   memoized. Before that, every interned node id stayed in the
   fingerprint memo, ~3.5 KB per TPC-H plan. *)
let test_reintern_keeps_store_size () =
  let d = Planner.Dag.create () in
  let intern_all () =
    List.iter
      (fun (_, _, build) -> ignore (Planner.Dag.intern d (build ())))
      Tpch.Tpch_queries.all
  in
  intern_all ();
  let words () = Obj.reachable_words (Obj.repr d) in
  let before = words () in
  for _ = 1 to 5 do intern_all () done;
  Alcotest.(check int) "store words after 5 more passes" before (words ());
  Alcotest.(check int) "plans counted" (6 * List.length Tpch.Tpch_queries.all)
    (Planner.Dag.stats d).Planner.Dag.plans

(* --- crypto-free classification --------------------------------------- *)

let test_crypto_free () =
  let plain = build_query () in
  Alcotest.(check bool) "plain tree is crypto-free" true
    (Planner.Dag.crypto_free plain);
  let enc = Plan.encrypt (Attr.Set.of_names [ "c" ]) (Plan.base r_schema) in
  Alcotest.(check bool) "Encrypt poisons" false (Planner.Dag.crypto_free enc);
  Alcotest.(check bool) "Decrypt poisons" false
    (Planner.Dag.crypto_free (Plan.decrypt (Attr.Set.of_names [ "c" ]) enc));
  let outsourced =
    Schema.make ~name:"S" ~owner:"O"
      ~storage:(Schema.outsourced ~host:"X" ~encrypted:[ "v" ])
      [ ("k", Schema.Tint); ("v", Schema.Tint) ]
  in
  Alcotest.(check bool) "encrypted-at-rest base poisons" false
    (Planner.Dag.crypto_free (Plan.base outsourced));
  Alcotest.(check bool) "plain select above stays poisoned" false
    (Planner.Dag.crypto_free
       (Plan.select
          (Predicate.conj
             [ Predicate.Cmp_const (Attr.make "k", Predicate.Eq, Value.Int 1) ])
          (Plan.base outsourced)))

(* --- positions under sharing ------------------------------------------ *)

(* one physical subtree with two parents: x feeds both join operands
   (visible schemas disjoint, so the join is well-formed) *)
let shared_x_plan () =
  let x = Plan.encrypt (Attr.Set.of_names [ "c"; "d" ]) (Plan.base r_schema) in
  let l = Plan.project (Attr.Set.of_names [ "a"; "c" ]) x in
  let r = Plan.project (Attr.Set.of_names [ "b"; "d" ]) x in
  let j =
    Plan.join
      (Predicate.conj
         [ Predicate.Cmp_attr (Attr.make "a", Predicate.Eq, Attr.make "b") ])
      l r
  in
  (j, x, l, r)

let tree_x_plan () =
  let mk () =
    Plan.encrypt (Attr.Set.of_names [ "c"; "d" ]) (Plan.base r_schema)
  in
  Plan.join
    (Predicate.conj
       [ Predicate.Cmp_attr (Attr.make "a", Predicate.Eq, Attr.make "b") ])
    (Plan.project (Attr.Set.of_names [ "a"; "c" ]) (mk ()))
    (Plan.project (Attr.Set.of_names [ "b"; "d" ]) (mk ()))

let test_positions_first_visit_wins () =
  let j, x, l, r = shared_x_plan () in
  Alcotest.(check int) "tree-equivalent size counts occurrences" 7
    (Plan.size j);
  let positions = Plan.preorder_positions j in
  let pos p = Hashtbl.find positions (Plan.id p) in
  Alcotest.(check int) "root at 0" 0 (pos j);
  Alcotest.(check int) "left operand at 1" 1 (pos l);
  Alcotest.(check int) "shared node keeps its first position" 2 (pos x);
  Alcotest.(check int) "right operand accounts the revisit" 4 (pos r);
  (* per-occurrence positions come from the traversal arithmetic *)
  (match Plan.child_positions j 0 with
  | [ (cl, 1); (cr, 4) ] ->
      Alcotest.(check bool) "children in order" true (cl == l && cr == r)
  | _ -> Alcotest.fail "unexpected root child positions");
  match Plan.child_positions r 4 with
  | [ (cx, 5) ] ->
      Alcotest.(check bool) "second occurrence of x at 5" true (cx == x)
  | _ -> Alcotest.fail "unexpected right-operand child positions"

(* The regression Exec's threaded positions exist for: encryption
   randomness must be labelled per occurrence, so executing the shared
   plan yields bytes identical to its tree-shaped original. Under the
   old id-keyed labelling both occurrences of x drew the same
   randomness stream and one join side's ciphertext came out wrong. *)
let test_dag_execution_byte_identical () =
  let ctx =
    Engine.Exec.context
      ~crypto:
        (Engine.Enc_exec.of_schemes
           (Mpq_crypto.Keyring.create ~seed:7L ())
           [ ("c", Mpq_crypto.Scheme.Rnd); ("d", Mpq_crypto.Scheme.Rnd) ])
      [ ("R", r_table ()) ]
  in
  let shared, _, _, _ = shared_x_plan () in
  let tree = tree_x_plan () in
  Alcotest.(check bool) "same shape" true (Plan.equal_shape shared tree);
  let a = Engine.Exec.run ctx shared and b = Engine.Exec.run ctx tree in
  Alcotest.(check bool) "rows survive the join" true
    (Engine.Table.rows a <> []);
  Alcotest.(check bool) "shared execution = tree execution (bytes)" true
    (byte_identical a b);
  (* the serve path: Dag.intern merges the tree's two x builds into one
     physical node — bytes still must not move *)
  let d = Planner.Dag.create () in
  let interned = Planner.Dag.intern d tree in
  Alcotest.(check int) "intern found the repeat" 2
    (Planner.Dag.occurrences d
       (Plan.encrypt (Attr.Set.of_names [ "c"; "d" ]) (Plan.base r_schema)));
  let c = Engine.Exec.run ctx interned in
  Alcotest.(check bool) "interned execution = tree execution (bytes)" true
    (byte_identical c b)

let () =
  Alcotest.run "dag"
    [ ( "interning",
        [ ("equal shapes merge", `Quick, test_intern_merges_equal_shapes);
          ("shared subtree spliced across plans", `Quick,
           test_intern_splices_shared_subtree);
          ("near-collision shapes stay distinct", `Quick,
           test_near_collision_shapes_do_not_merge);
          ("re-interning equal shapes keeps the store's size", `Quick,
           test_reintern_keeps_store_size) ] );
      ( "crypto-free",
        [ ("classification", `Quick, test_crypto_free) ] );
      ( "positions",
        [ ("first-visit-wins table, per-occurrence arithmetic", `Quick,
           test_positions_first_visit_wins);
          ("DAG execution byte-identical to tree", `Quick,
           test_dag_execution_byte_identical) ] ) ]
