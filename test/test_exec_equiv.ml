(* The strongest end-to-end property in the suite: for random plans,
   random policies, random data and any assignment drawn from the
   candidate sets, executing the minimally extended plan over real
   ciphertext — deterministic equality, OPE ranges, Paillier aggregation,
   on-the-fly encrypt/decrypt — produces exactly the same bag of rows as
   executing the original plan over plaintext (after decrypting the
   delivered result). *)

open Relalg
open Authz
open Engine

(* random tables for Gen's catalog; values kept in OPE/phe-friendly
   ranges and low-cardinality so joins and selections actually match *)
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

let gen_case =
  QCheck.Gen.(
    Gen.gen_plan >>= fun plan ->
    Gen.gen_policy >>= fun policy ->
    fun st ->
      let tables = gen_tables st in
      let config = Opreq.resolve_conflicts Opreq.default plan in
      let lam = Candidates.compute ~policy ~subjects:Gen.subjects ~config plan in
      let assignment =
        Plan.fold
          (fun acc n ->
            if Candidates.is_source_side n then acc
            else
              match
                Subject.Set.elements (Candidates.candidates_of lam n)
              with
              | [] -> acc
              | cands ->
                  let i = QCheck.Gen.int_bound (List.length cands - 1) st in
                  Imap.add (Plan.id n) (List.nth cands i) acc)
          Imap.empty plan
      in
      (plan, policy, config, assignment, tables))

let plannable plan assignment =
  Plan.fold
    (fun acc n ->
      acc && (Candidates.is_source_side n || Imap.mem (Plan.id n) assignment))
    true plan

(* the udf used by Gen plans: an arithmetic tweak over its inputs *)
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

let prop_encrypted_equals_plain =
  QCheck.Test.make ~count:250
    ~name:"extended-over-ciphertext = original-over-plaintext"
    (QCheck.make
       ~print:(fun (plan, _, _, _, _) -> Plan_printer.to_ascii plan)
       gen_case)
    (fun (plan, policy, config, assignment, tables) ->
      QCheck.assume (plannable plan assignment);
      (* the udf needs plaintext inputs by default; its candidates may be
         empty under a stingy random policy — filtered by assume above *)
      let expected =
        Exec.run (Exec.context ~udfs:udf_impls tables) plan
      in
      let ext =
        Extend.extend ~policy ~config ~assignment ~deliver_to:Gen.user plan
      in
      let keyring = Mpq_crypto.Keyring.create ~seed:123L () in
      let clusters = Plan_keys.compute ~config ~original:plan ext in
      let crypto = Enc_exec.make keyring clusters in
      let actual =
        Exec.run (Exec.context ~udfs:udf_impls ~crypto tables) ext.Extend.plan
      in
      (* deliver_to decrypts visible ciphertext; bags must coincide *)
      if Table.equal_bag expected actual then true
      else
        QCheck.Test.fail_reportf
          "results differ:\nexpected:\n%s\nactual:\n%s\nextended:\n%s"
          (Table.to_string expected) (Table.to_string actual)
          (Extend.to_ascii ext))

let prop_monitor_clean =
  QCheck.Test.make ~count:150
    ~name:"monitor finds no violation on optimizer-produced plans"
    (QCheck.make
       ~print:(fun (plan, _, _, _, _) -> Plan_printer.to_ascii plan)
       gen_case)
    (fun (plan, policy, config, assignment, tables) ->
      QCheck.assume (plannable plan assignment);
      ignore config;
      let config = Opreq.resolve_conflicts Opreq.default plan in
      let ext =
        Extend.extend ~policy ~config ~assignment ~deliver_to:Gen.user plan
      in
      let keyring = Mpq_crypto.Keyring.create ~seed:7L () in
      let clusters = Plan_keys.compute ~config ~original:plan ext in
      let crypto = Enc_exec.make keyring clusters in
      let check = Distsim.Runtime.check_node ~policy ext in
      match
        Exec.run_with_hook
          (Exec.context ~udfs:udf_impls ~crypto tables)
          ~hook:(fun n t -> ignore (check n t))
          ext.Extend.plan
      with
      | _ -> true
      | exception Distsim.Runtime.Distributed_violation m ->
          QCheck.Test.fail_reportf "%s\nextended:\n%s" m (Extend.to_ascii ext))

(* Regression: numerically equal Int/Float join keys must land in the
   same hash bucket. The old key encoding sent [Int i] to ["N<i>"]
   unconditionally but normalized integer-valued floats only below 1e15,
   so [Int 1_000_000_000_000_000] and [Float 1e15] — equal under
   [Value.compare], hence matched by the nested-loop path — hashed to
   different buckets and the pair silently vanished from hash joins. *)
let test_mixed_numeric_hash_join () =
  let l =
    Table.create
      [ Attr.make "a"; Attr.make "tag" ]
      [ [| Value.Int 1; Value.Str "small-int" |];
        [| Value.Int 1_000_000_000_000_000; Value.Str "big-int" |];
        [| Value.Float 2.5; Value.Str "frac" |];
        [| Value.Int 7; Value.Str "lonely" |] ]
  in
  let r =
    Table.create
      [ Attr.make "c" ]
      [ [| Value.Float 1.0 |]; [| Value.Float 1e15 |]; [| Value.Float 2.5 |];
        [| Value.Int 5 |] ]
  in
  let la =
    Plan.base
      (Schema.make ~name:"L" ~owner:"H"
         [ ("a", Schema.Tfloat); ("tag", Schema.Tstring) ])
  in
  let ra =
    Plan.base (Schema.make ~name:"R" ~owner:"H" [ ("c", Schema.Tfloat) ])
  in
  let a = Attr.make "a" and c = Attr.make "c" in
  let hash_plan =
    Plan.join (Predicate.conj [ Predicate.Cmp_attr (a, Predicate.Eq, c) ]) la ra
  in
  (* same predicate as [a <= c and a >= c]: no equi pair to extract, so
     the executor takes the nested-loop path — the semantic reference *)
  let nested_plan =
    Plan.join
      (Predicate.conj
         [ Predicate.Cmp_attr (a, Predicate.Le, c);
           Predicate.Cmp_attr (a, Predicate.Ge, c) ])
      la ra
  in
  let ctx = Exec.context [ ("L", l); ("R", r) ] in
  let hashed = Exec.run ctx hash_plan in
  let nested = Exec.run ctx nested_plan in
  Alcotest.(check int) "three mixed-type matches" 3 (Table.cardinality hashed);
  Alcotest.(check bool) "hash path = nested-loop path" true
    (Table.equal_bag hashed nested)

(* --- column executor vs the row oracle --------------------------------- *)

(* what a reader can observe of a table: the header, row order and
   every value (ciphertext payloads included), its CSV and its byte
   size *)
let observe t = (Table.attrs t, Table.rows t, Csv.to_string t, Table.byte_size t)

let same_view (aa, ar, ac, ab) (ba, br, bc, bb) =
  List.equal Attr.equal aa ba
  && List.equal (fun (x : Value.t array) y -> x = y) ar br
  && String.equal ac bc && ab = bb

(* every node's table, in post-order, then the result — or the same
   exception after the same nodes *)
let outcome run =
  let nodes = ref [] in
  let hook _ t = nodes := observe t :: !nodes in
  let result =
    match run ~hook with
    | t -> Ok (observe t)
    | exception e -> Error (Printexc.to_string e)
  in
  (List.rev !nodes, result)

let same_outcome (an, a) (bn, b) =
  List.equal same_view an bn
  &&
  match (a, b) with
  | Ok x, Ok y -> same_view x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let show_view (attrs, rows, _, bytes) =
  Printf.sprintf "%s(%d bytes)" (Table.to_string ~limit:8 (Table.create attrs rows)) bytes

let show (nodes, result) =
  match result with
  | Ok v -> show_view v
  | Error e ->
      Printf.sprintf "raised %s after %d nodes, the last:\n%s" e (List.length nodes)
        (match List.rev nodes with v :: _ -> show_view v | [] -> "none")

(* [Exec.run] against [Row_oracle.run], at every node; [ctx ()] must
   build a fresh crypto context *)
let check_against_oracle ~label ctx plan =
  let want = outcome (fun ~hook -> Row_oracle.run ~hook (ctx ()) plan) in
  let got = outcome (fun ~hook -> Exec.run_with_hook (ctx ()) ~hook plan) in
  same_outcome want got
  || QCheck.Test.fail_reportf "%s:\nrow oracle: %s\ncolumns: %s" label (show want)
       (show got)

let two_53 = 9007199254740992

(* Gen's catalog with the cells that stress the operators: Nulls, Int and
   Float keys on both sides of 2^53 (where Int/Float equality stops
   being exact), few distinct values (duplicate join and group keys),
   strings tied on their 4-byte OPE prefix, empty tables and tables of
   64 to 103 rows. Each column draws a style —
   all Int, all Float, or mixed — so typed and boxed columns both
   meet on join keys and in predicates. *)
let edge_values =
  [| Value.Int (two_53 - 1); Value.Int two_53; Value.Int (two_53 + 1);
     Value.Float 9007199254740991.0; Value.Float 9007199254740992.0;
     Value.Float 9007199254740994.0; Value.Int (-two_53 - 1);
     Value.Float (-9007199254740992.0) |]

let gen_oracle_tables st =
  let pick a = a.(QCheck.Gen.int_bound (Array.length a - 1) st) in
  let small () = QCheck.Gen.int_bound 5 st in
  let num_column () =
    match QCheck.Gen.int_bound 3 st with
    | 0 -> fun () -> Value.Int (small ())
    | 1 -> fun () -> Value.Float (float_of_int (small ()))
    | 2 -> (
        fun () ->
          match QCheck.Gen.int_bound 7 st with
          | 0 -> Value.Null
          | 1 -> pick edge_values
          | 2 | 3 -> Value.Float (float_of_int (small ()))
          | _ -> Value.Int (small ()))
    | _ -> (
        fun () ->
          match QCheck.Gen.int_bound 7 st with
          | 0 -> Value.Null
          | 1 | 2 -> Value.Float (float_of_int (small ()))
          | _ -> Value.Int (small ()))
  in
  let str_column () =
    let nulls = QCheck.Gen.bool st in
    fun () ->
      if nulls && QCheck.Gen.int_bound 5 st = 0 then Value.Null
      else Value.Str (pick [| "abcdX"; "abcdY"; "abcd"; "ga"; "bu"; "zo"; "meu" |])
  in
  let size () =
    if QCheck.Gen.int_bound 5 st = 0 then 64 + QCheck.Gen.int_bound 40 st
    else QCheck.Gen.int_bound 12 st
  in
  let rel schema =
    let cells =
      List.map (fun a -> if Gen.is_string a then str_column () else num_column ())
        (Schema.attr_list schema)
    in
    Table.of_schema schema
      (List.init (size ()) (fun _ -> Array.of_list (List.map (fun c -> c ()) cells)))
  in
  [ ("R1", rel Gen.rel1); ("R2", rel Gen.rel2); ("R3", rel Gen.rel3) ]

let prop_row_oracle =
  QCheck.Test.make ~count:200
    ~name:"column executor = row oracle, byte for byte"
    (QCheck.make
       ~print:(fun ((c : Gen.extended_case), _) ->
         Plan_printer.to_ascii c.Gen.executable)
       QCheck.Gen.(Gen.gen_extended >>= fun case -> fun st -> (case, gen_oracle_tables st)))
    (fun (case, tables) ->
      let ctx () =
        let keyring = Mpq_crypto.Keyring.create ~seed:123L () in
        let crypto = Enc_exec.make keyring case.Gen.clusters in
        Exec.context ~udfs:udf_impls ~crypto tables
      in
      check_against_oracle ~label:"extended plan" ctx case.Gen.executable
      && check_against_oracle ~label:"original plan"
           (fun () -> Exec.context ~udfs:udf_impls tables)
           case.Gen.original)

(* --- operator scratch and index views ----------------------------------- *)

(* What leaves the executor is complete and its own. Three generated
   plans run one after another on one domain. The first plan's result,
   and the tables its memo kept (odd positions: not the root, which
   only the executor's own boundary completes), hold no view
   column, and after the other two plans ran they still read the bytes
   they read before and the row oracle's result: a scratch array or an
   index array that escaped into them would have been overwritten by
   the later runs' operators. The hook sees only complete tables, and
   every run gives all of its scratch back. *)
let prop_nothing_escapes =
  let case = QCheck.Gen.(Gen.gen_extended >>= fun c -> fun st -> (c, gen_oracle_tables st)) in
  QCheck.Test.make ~count:120 ~name:"no scratch array or index view leaves the executor"
    (QCheck.make
       ~print:(fun (((a : Gen.extended_case), _), _, _) -> Plan_printer.to_ascii a.Gen.executable)
       QCheck.Gen.(triple case case case))
    (fun (a, b, c) ->
      let ctx ((case : Gen.extended_case), tables) =
        let keyring = Mpq_crypto.Keyring.create ~seed:123L () in
        Exec.context ~udfs:udf_impls ~crypto:(Enc_exec.make keyring case.Gen.clusters) tables
      in
      let complete what t =
        Table.is_materialized t || QCheck.Test.fail_reportf "%s holds a view column" what
      in
      let balanced () =
        Scratch.depth () = 0 || QCheck.Test.fail_reportf "%d scratch arrays not given back" (Scratch.depth ())
      in
      let kept = ref [] in
      let memo =
        { Exec.lookup = (fun ~pos:_ _ -> None);
          store = (fun ~pos _ table -> if pos mod 2 = 1 then kept := table () :: !kept) }
      in
      let run_a () = Exec.run ~memo (ctx a) (fst a).Gen.executable in
      match run_a () with
      | exception _ -> balanced ()
      | result ->
          balanced ()
          && complete "the result" result
          && List.for_all (complete "a memo-kept table") !kept
          &&
          let before = List.map observe (result :: !kept) in
          let hook _ t = ignore (complete "a hook-visible table" t) in
          (try ignore (Exec.run_with_hook (ctx b) ~hook (fst b).Gen.executable) with
           | QCheck.Test.Test_fail _ as e -> raise e
           | _ -> ());
          (try ignore (Exec.run (ctx c) (fst c).Gen.executable) with _ -> ());
          balanced ()
          && (List.equal same_view before (List.map observe (result :: !kept))
             || QCheck.Test.fail_reportf "a kept table changed while later plans ran")
          && (same_view (observe result)
                (observe (Row_oracle.run (ctx a) (fst a).Gen.executable))
             || QCheck.Test.fail_reportf "the result is not the row oracle's"))

(* --- column kernels against the row oracle ------------------------------ *)

(* Tables T(a, b, s, d) and U(c, t) whose every column draws a kind and
   a representation: typed (homogeneous, no Null — the kernels' input),
   or boxed ([Values]: Nulls, and Int/Float mixes at equal values). The
   kinds stress the kernels' type rules: small ints, ints beyond 2^53,
   floats with -0.0 and 0.0, strings tied on their 4-byte OPE prefix,
   dates and booleans. Each column is then left plaintext or sealed
   under det, OPE or rnd, one key per scheme, so sealed columns meet in
   comparisons, join keys and multi-column group keys, beside typed and
   boxed ones. *)
type kernel_case = {
  plan : Plan.t;
  tables : (string * Table.t) list;
  clusters : Authz.Plan_keys.cluster list;
  all_typed : bool;  (** no [Values] column, so no empty table *)
}

let kernel_cell st kind ~boxed =
  let pick a = a.(QCheck.Gen.int_bound (Array.length a - 1) st) in
  if boxed && QCheck.Gen.int_bound 4 st = 0 then Value.Null
  else
    match kind with
    | `Int when boxed && QCheck.Gen.bool st -> Value.Float (float_of_int (QCheck.Gen.int_bound 4 st))
    | `Int -> Value.Int (QCheck.Gen.int_bound 4 st)
    | `Big when boxed && QCheck.Gen.bool st -> Value.Float 9007199254740992.0
    | `Big -> Value.Int (pick [| two_53 - 1; two_53; two_53 + 1; two_53 + 2; 4 |])
    | `Float when boxed && QCheck.Gen.bool st -> Value.Int 4
    | `Float -> Value.Float (pick [| -0.0; 0.0; 1.0; 2.5; 4.0; 0.125 |])
    | `Str -> Value.Str (pick [| "abcdX"; "abcdY"; "abcd"; "ga"; "bu" |])
    | `Date -> Value.Date (pick [| 100; 200; 300 |])
    | `Bool -> Value.Bool (QCheck.Gen.bool st)

(* constants of a column's kind, mostly, so selections keep some rows *)
let kernel_const st kind =
  let pick a = a.(QCheck.Gen.int_bound (Array.length a - 1) st) in
  if QCheck.Gen.int_bound 4 st = 0 then
    pick
      [| Value.Int 1; Value.Float 4.0; Value.Float (-0.0); Value.Int (two_53 + 1);
         Value.Str "abcdY"; Value.Date 200; Value.Bool true; Value.Null |]
  else kernel_cell st kind ~boxed:false

let gen_kernel_case st =
  let module G = QCheck.Gen in
  let pick a = a.(G.int_bound (Array.length a - 1) st) in
  let pickl l = List.nth l (G.int_bound (List.length l - 1) st) in
  let numeric () = pick [| `Int; `Int; `Float; `Big |] in
  (* a and c share a kind, so they join; s and t are strings *)
  let key = numeric () in
  let kinds =
    [ ("a", key); ("b", numeric ()); ("s", `Str); ("d", pick [| `Date; `Bool |]);
      ("c", key); ("t", `Str) ]
  in
  let kind a = List.assoc a kinds in
  let boxing = G.int_bound 2 st in
  let schemes = ref [] in
  (* a relation over [attrs], sealing some of them *)
  let relation name attrs =
    let cols =
      List.map
        (fun a ->
          (a, boxing = 0 && G.bool st))
        attrs
    in
    let rows = if G.int_bound 7 st = 0 then 0 else 1 + G.int_bound 20 st in
    let schema = Schema.make ~name ~owner:"H" (List.map (fun a -> (a, Schema.Tint)) attrs) in
    let table =
      Table.of_schema schema
        (List.init rows (fun _ ->
             Array.of_list (List.map (fun (a, boxed) -> kernel_cell st (kind a) ~boxed) cols)))
    in
    List.iter
      (fun a ->
        match G.int_bound 5 st with
        | 0 | 1 -> schemes := (a, Mpq_crypto.Scheme.Det) :: !schemes
        | 2 | 3 when kind a <> `Big -> schemes := (a, Mpq_crypto.Scheme.Ope) :: !schemes
        | 4 -> schemes := (a, Mpq_crypto.Scheme.Rnd) :: !schemes
        | _ -> ())
      attrs;
    let sealed = List.filter (fun a -> List.mem_assoc a !schemes) attrs in
    let scan =
      if sealed = [] then Plan.base schema
      else Plan.encrypt (Attr.Set.of_names sealed) (Plan.base schema)
    in
    (scan, (name, table))
  in
  let t_attrs = [ "a"; "b"; "s"; "d" ] and u_attrs = [ "c"; "t" ] in
  let t, t_table = relation "T" t_attrs in
  let u, u_table = relation "U" u_attrs in
  let at = Attr.make in
  let op () =
    pick [| Predicate.Eq; Predicate.Eq; Predicate.Neq; Predicate.Lt; Predicate.Le; Predicate.Gt; Predicate.Ge |]
  in
  let atom attrs =
    let x = pickl attrs in
    match G.int_bound 7 st with
    | 0 | 1 | 2 -> Predicate.Cmp_const (at x, op (), kernel_const st (kind x))
    | 3 -> Predicate.Cmp_attr (at x, op (), at (pickl attrs))
    | 4 | 5 ->
        Predicate.In_list
          (at x, List.init (1 + G.int_bound 2 st) (fun _ -> kernel_const st (kind x)))
    | 6 -> Predicate.Like (at x, pick [| "abcd%"; "g_"; "%u"; "%" |])
    | _ -> Predicate.Like (at "s", "abcd_")
  in
  let pred attrs =
    List.init (1 + G.int_bound 1 st) (fun _ ->
        List.init (if G.int_bound 3 st = 0 then 2 else 1) (fun _ -> atom attrs))
  in
  let join_pred () =
    let pairs =
      List.filter (fun _ -> G.bool st)
        [ [ Predicate.Cmp_attr (at "a", Predicate.Eq, at "c") ];
          [ Predicate.Cmp_attr (at "s", Predicate.Eq, at "t") ];
          [ Predicate.Cmp_attr (at (pickl t_attrs), Predicate.Eq, at (pickl u_attrs)) ] ]
    in
    let extra =
      match G.int_bound 4 st with
      | 0 -> [ [ atom t_attrs ] ]
      | 1 ->
          [ [ Predicate.Cmp_attr (at "a", Predicate.Eq, at "c");
              Predicate.Cmp_attr (at "b", op (), at "c") ] ]
      | _ -> []
    in
    let p = pairs @ extra in
    if Predicate.attr_pairs p = [] then [ Predicate.Cmp_attr (at "a", Predicate.Eq, at "c") ] :: p
    else p
  in
  let group input attrs =
    let keys = List.filter (fun _ -> G.int_bound 2 st = 0) attrs in
    let aggs =
      List.init (1 + G.int_bound 2 st) (fun k ->
          let x = at (pickl attrs) in
          let f =
            match G.int_bound 5 st with
            | 0 -> Aggregate.Count_star
            | 1 -> Aggregate.Count x
            | 2 -> Aggregate.Sum x
            | 3 -> Aggregate.Avg x
            | 4 -> Aggregate.Min x
            | _ -> Aggregate.Max x
          in
          Aggregate.make_named f (Printf.sprintf "o%d" k))
    in
    Plan.group_by (Attr.Set.of_names keys) aggs input
  in
  let plan =
    match G.int_bound 4 st with
    | 0 -> Plan.select (pred t_attrs) t
    | 1 -> group t t_attrs
    | 2 -> Plan.join (join_pred ()) t u
    | 3 -> Plan.select (pred (t_attrs @ u_attrs)) (Plan.join (join_pred ()) t u)
    | _ -> group (Plan.join (join_pred ()) t u) (t_attrs @ u_attrs)
  in
  let clusters =
    List.filter_map
      (fun scheme ->
        let attrs = List.filter_map (fun (a, s) -> if s = scheme then Some a else None) !schemes in
        if attrs = [] then None
        else
          Some
            { Authz.Plan_keys.id = Mpq_crypto.Scheme.name scheme;
              attrs = Attr.Set.of_names attrs;
              scheme;
              holders = Authz.Subject.Set.empty })
      [ Mpq_crypto.Scheme.Det; Mpq_crypto.Scheme.Ope; Mpq_crypto.Scheme.Rnd ]
  in
  let tables = [ t_table; u_table ] in
  let all_typed =
    List.for_all (fun (_, t) -> Array.for_all Column.is_unboxed (Table.columns t)) tables
  in
  { plan; tables; clusters; all_typed }

let materialized () =
  List.fold_left
    (fun acc s -> acc + Obs.counter ("enc_exec." ^ s ^ ".materialized"))
    0 [ "det"; "ope"; "rnd" ]

(* Every node's bytes and every error message are the row oracle's;
   where the plan runs without error, no selection handed its rows to
   the row loop ([eval.select.replays]): the kernels raised nothing; and
   over typed and sealed det/OPE columns the kernels produce no
   ciphertext bytes. *)
let prop_kernels =
  QCheck.Test.make ~count:250 ~name:"select, group_by, join kernels = row oracle"
    (QCheck.make ~print:(fun c -> Plan_printer.to_ascii c.plan) gen_kernel_case)
    (fun c ->
      let ctx () =
        Exec.context ~crypto:(Enc_exec.make (Mpq_crypto.Keyring.create ~seed:5L ()) c.clusters)
          c.tables
      in
      check_against_oracle ~label:"kernels" ctx c.plan
      &&
      let rnd = List.exists (fun cl -> cl.Authz.Plan_keys.scheme = Mpq_crypto.Scheme.Rnd) c.clusters in
      Obs.reset ();
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ()) @@ fun () ->
      match Exec.run (ctx ()) c.plan with
      | _ ->
          (Obs.counter "eval.select.replays" = 0
          || QCheck.Test.fail_reportf "%d selections replayed the row loop"
               (Obs.counter "eval.select.replays"))
          && ((not c.all_typed) || rnd || materialized () = 0
             || QCheck.Test.fail_reportf "%d cells materialized" (materialized ()))
      | exception _ -> true)

(* The kernels' edge cases, one by one, against the row oracle: -0.0 and
   0.0 tie in min/max (the first row wins), string IN lists over each
   sealed scheme (rnd must refuse), and the errors the row loop raises —
   OPE tied prefixes, det order comparisons, LIKE on ciphertext,
   incomparable kinds, keys under different schemes — each where the
   row loop meets it first: the first row in a selection, the first
   group and then the first aggregate in a group-by. *)
let test_kernel_edges () =
  let x = Attr.make "x" and y = Attr.make "y" and g = Attr.make "g" in
  let schema = Schema.make ~name:"E" ~owner:"H" [ ("g", Schema.Tint); ("x", Schema.Tint); ("y", Schema.Tint) ] in
  let table rows = [ ("E", Table.of_schema schema (List.map Array.of_list rows)) ] in
  let floats = table (List.map (fun (k, f) -> [ Value.Int k; Value.Float f; Value.Float 1.0 ]) [ (0, 0.0); (0, -0.0); (1, -0.0); (1, 0.0); (1, 2.0) ]) in
  let strs =
    table (List.map (fun (k, s) -> [ Value.Int k; Value.Str s; Value.Str "abcdY" ]) [ (0, "abcdX"); (1, "ga"); (0, "abcdY"); (1, "bu") ])
  in
  let ints = table (List.map (fun k -> [ Value.Int (k mod 2); Value.Int k; Value.Date k ]) [ 3; 1; 4; 1; 5 ]) in
  let scan scheme attrs =
    match scheme with
    | None -> Plan.base schema
    | Some _ -> Plan.encrypt (Attr.Set.of_list attrs) (Plan.base schema)
  in
  let minmax = [ Aggregate.make_named (Aggregate.Min x) "lo"; Aggregate.make_named (Aggregate.Max x) "hi" ] in
  let cases =
    [ (floats, None, [ x ], Plan.group_by (Attr.Set.singleton g) minmax);
      (floats, Some Mpq_crypto.Scheme.Ope, [ x ], Plan.group_by (Attr.Set.singleton g) minmax);
      (strs, Some Mpq_crypto.Scheme.Ope, [ x ], Plan.group_by (Attr.Set.singleton g) minmax);
      (floats, None, [ x ], Plan.select [ [ Predicate.Cmp_const (x, Predicate.Le, Value.Float (-0.0)) ] ]) ]
    @ List.concat_map
        (fun scheme ->
          let sealed = Some scheme in
          [ (strs, sealed, [ x ], Plan.select [ [ Predicate.In_list (x, [ Value.Str "ga"; Value.Str "abcdX" ]) ] ]);
            (strs, sealed, [ x ], Plan.select [ [ Predicate.Cmp_const (x, Predicate.Lt, Value.Str "abcdZ") ] ]);
            (strs, sealed, [ x; y ], Plan.select [ [ Predicate.Cmp_attr (x, Predicate.Ge, y) ] ]);
            (strs, sealed, [ x ], Plan.select [ [ Predicate.Like (x, "g%") ] ]);
            (ints, sealed, [ x ], Plan.select [ [ Predicate.Cmp_const (x, Predicate.Gt, Value.Int 2) ] ]);
            (ints, sealed, [ x ], Plan.select [ [ Predicate.Cmp_const (x, Predicate.Eq, Value.Float 4.0) ] ]);
            (ints, sealed, [ x; y ], Plan.select [ [ Predicate.Cmp_attr (x, Predicate.Eq, y) ] ]) ])
        [ Mpq_crypto.Scheme.Det; Mpq_crypto.Scheme.Ope; Mpq_crypto.Scheme.Rnd ]
    @ [ (ints, None, [], Plan.select [ [ Predicate.Cmp_const (y, Predicate.Lt, Value.Int 2) ] ]);
        (ints, None, [], Plan.select [ [ Predicate.Like (x, "1") ] ]);
        (* the first error in row order, not clause order: row 0 passes
           the LIKE and fails the comparison, row 1 fails the LIKE *)
        ( table [ [ Value.Int 0; Value.Str "ga"; Value.Str "a" ]; [ Value.Int 1; Value.Int 3; Value.Int 0 ] ],
          None, [],
          Plan.select
            [ [ Predicate.Like (x, "g%") ]; [ Predicate.Cmp_const (y, Predicate.Lt, Value.Int 2) ] ] );
        (* the first failing group's error, not the first aggregate's:
           sum x fails at group 1, sum y at group 0 *)
        ( table
            [ [ Value.Int 0; Value.Null; Value.Str "t" ]; [ Value.Int 1; Value.Str "s"; Value.Int 1 ];
              [ Value.Int 0; Value.Null; Value.Int 2 ] ],
          None, [],
          Plan.group_by (Attr.Set.singleton g)
            [ Aggregate.make_named (Aggregate.Sum x) "sx"; Aggregate.make_named (Aggregate.Sum y) "sy" ] );
        (* the first failing group, not the first failing row: min x
           meets tied prefixes in group 1 at row 2, in group 0 at row 3,
           and sum y fails at group 0 *)
        ( table
            [ [ Value.Int 0; Value.Str "abcdX"; Value.Str "t" ]; [ Value.Int 1; Value.Str "abcdX"; Value.Int 1 ];
              [ Value.Int 1; Value.Str "abcdY"; Value.Int 1 ]; [ Value.Int 0; Value.Str "abcdY"; Value.Int 1 ] ],
          Some Mpq_crypto.Scheme.Ope, [ x ],
          Plan.group_by (Attr.Set.singleton g)
            [ Aggregate.make_named (Aggregate.Min x) "lo"; Aggregate.make_named (Aggregate.Sum y) "sy" ] ) ]
  in
  List.iteri
    (fun i (tables, scheme, attrs, op) ->
      let clusters =
        Option.fold ~none:[]
          ~some:(fun scheme ->
            [ { Authz.Plan_keys.id = "k"; attrs = Attr.Set.of_list attrs; scheme;
                holders = Authz.Subject.Set.empty } ])
          scheme
      in
      let ctx () =
        Exec.context ~crypto:(Enc_exec.make (Mpq_crypto.Keyring.create ~seed:9L ()) clusters) tables
      in
      Alcotest.(check bool) (Printf.sprintf "case %d" i) true
        (check_against_oracle ~label:(string_of_int i) ctx (op (scan scheme attrs))))
    cases

(* A left row's matches come out in descending right-row order: the row
   executor probed with [Hashtbl.find_all], most recent binding first. *)
let test_join_match_order () =
  let l = Table.create [ Attr.make "a" ] [ [| Value.Int 1 |]; [| Value.Int 2 |] ] in
  let r =
    Table.create
      [ Attr.make "c"; Attr.make "tag" ]
      [ [| Value.Int 1; Value.Str "r0" |]; [| Value.Float 1.0; Value.Str "r1" |];
        [| Value.Int 2; Value.Str "r2" |]; [| Value.Int 1; Value.Str "r3" |];
        [| Value.Null; Value.Str "r4" |] ]
  in
  let plan =
    Plan.join
      (Predicate.conj [ Predicate.Cmp_attr (Attr.make "a", Predicate.Eq, Attr.make "c") ])
      (Plan.base (Schema.make ~name:"L" ~owner:"H" [ ("a", Schema.Tint) ]))
      (Plan.base
         (Schema.make ~name:"R" ~owner:"H" [ ("c", Schema.Tint); ("tag", Schema.Tstring) ]))
  in
  let ctx () = Exec.context [ ("L", l); ("R", r) ] in
  let tags t = List.map (fun row -> Value.to_string row.(2)) (Table.rows t) in
  Alcotest.(check (list string)) "descending right rows per left row"
    [ "\"r3\""; "\"r1\""; "\"r0\""; "\"r2\"" ]
    (tags (Exec.run (ctx ()) plan));
  Alcotest.(check (list string)) "row oracle agrees"
    (tags (Row_oracle.run (ctx ()) plan))
    (tags (Exec.run (ctx ()) plan))

let agree ?crypto tables plan =
  Alcotest.(check bool) "column executor = row oracle" true
    (check_against_oracle ~label:"case"
       (fun () -> Exec.context ?crypto:(Option.map (fun f -> f ()) crypto) tables)
       plan)

(* A join with an empty side produces no ciphertext: the empty side's
   columns are boxed ([Values [||]]), and keying the other side's sealed
   column against them used to materialize every cell. *)
let test_empty_join_seals () =
  let t = Schema.make ~name:"T" ~owner:"H" [ ("a", Schema.Tint) ] in
  let u = Schema.make ~name:"U" ~owner:"H" [ ("c", Schema.Tint) ] in
  let a = Attr.make "a" and c = Attr.make "c" in
  let tables =
    [ ("T", Table.of_schema t (List.init 31 (fun i -> [| Value.Int i |])));
      ("U", Table.of_schema u []) ]
  in
  let cluster =
    { Authz.Plan_keys.id = "k"; attrs = Attr.Set.singleton a; scheme = Mpq_crypto.Scheme.Det;
      holders = Authz.Subject.Set.empty }
  in
  let plan =
    Plan.join
      (Predicate.conj [ Predicate.Cmp_attr (a, Predicate.Eq, c) ])
      (Plan.encrypt (Attr.Set.singleton a) (Plan.base t))
      (Plan.base u)
  in
  let crypto () = Enc_exec.make (Mpq_crypto.Keyring.create ~seed:5L ()) [ cluster ] in
  agree ~crypto tables plan;
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ()) @@ fun () ->
  Alcotest.(check int) "no rows" 0
    (Table.cardinality (Exec.run (Exec.context ~crypto:(crypto ()) tables) plan));
  Alcotest.(check int) "no cell materialized" 0 (materialized ())

(* Regression, the plan QCHECK_SEED=106754953 extended: an [avg]
   re-encrypted under OPE came back rounded to cents (47.57 for 47.5714).
   A lossy float now carries a det tail, like a string. *)
let test_ope_float_precision () =
  let row c b = [| Value.Int 0; Value.Int b; Value.Str c; Value.Int 0 |] in
  let r1 =
    Table.of_schema Gen.rel1
      (List.map (row "zo") [ 40; 41; 42; 43; 44; 45; 78 ]
      @ List.map (row "meu") [ 42; 45 ])
  in
  let b = Attr.make "b" and bs = Attr.Set.of_names [ "b" ] in
  let bc = Attr.Set.of_names [ "b"; "c" ] in
  let plan scan mid top =
    Plan.order_by [ (Attr.make "c", Plan.Desc) ]
      (top
         (Plan.group_by (Attr.Set.of_names [ "c" ])
            [ Aggregate.make (Aggregate.Avg b) ]
            (mid
               (Plan.order_by [ (b, Plan.Asc) ]
                  (scan (Plan.project bc (Plan.base Gen.rel1)))))))
  in
  let enc = Plan.encrypt and dec = Plan.decrypt in
  let extended = dec bc (plan (enc bc) (dec bs) (enc bs)) in
  let crypto () =
    Enc_exec.of_schemes (Mpq_crypto.Keyring.create ~seed:123L ())
      [ ("b", Mpq_crypto.Scheme.Ope); ("c", Mpq_crypto.Scheme.Ope) ]
  in
  let run ?crypto tables p = Exec.run (Exec.context ?crypto tables) p in
  Alcotest.(check bool) "ciphertext run = plaintext run" true
    (Table.equal_bag
       (run [ ("R1", r1) ] (plan Fun.id Fun.id Fun.id))
       (run ~crypto:(crypto ()) [ ("R1", r1) ] extended));
  agree ~crypto [ ("R1", r1) ] extended;
  let ctx = crypto () in
  let cells = [ Value.Float (333. /. 7.); Value.Int 3; Value.Null; Value.Float 0.1 ] in
  let column = Table.create [ b ] (List.map (fun v -> [| v |]) cells) in
  let m = Plan.base (Schema.make ~name:"M" ~owner:"H" [ ("b", Schema.Tfloat) ]) in
  Alcotest.(check bool) "single values and a Values column round-trip" true
    (List.map (fun v -> Enc_exec.decrypt_value ctx (Enc_exec.encrypt_value ctx b v)) cells
     = cells
    && Table.equal_bag column
         (run ~crypto:(crypto ()) [ ("M", column) ] (dec bs (enc bs m))))

(* Regression: the hash join keyed an OPE ciphertext by its whole
   payload, while its own predicate finds numeric images tied at cent
   precision equal whatever their tag byte and det tail. An OPE Int 4
   joined with an OPE Float 4.0 or 4.001 gave no row, where the same
   predicate over the product gave one. *)
let test_ope_join_cent_ties () =
  let a = Attr.make "a" and c = Attr.make "c" in
  let cluster =
    { Authz.Plan_keys.id = "k";
      attrs = Attr.Set.of_list [ a; c ];
      scheme = Mpq_crypto.Scheme.Ope;
      holders = Authz.Subject.Set.empty }
  in
  let crypto () = Enc_exec.make (Mpq_crypto.Keyring.create ~seed:3L ()) [ cluster ] in
  let l = Plan.base (Schema.make ~name:"L" ~owner:"H" [ ("a", Schema.Tint) ]) in
  let r = Plan.base (Schema.make ~name:"R" ~owner:"H" [ ("c", Schema.Tfloat) ]) in
  let eq = Predicate.conj [ Predicate.Cmp_attr (a, Predicate.Eq, c) ] in
  let enc x p = Plan.encrypt (Attr.Set.singleton x) p in
  let joined = Plan.join eq (enc a l) (enc c r) in
  let selected = Plan.select eq (Plan.product (enc a l) (enc c r)) in
  List.iter
    (fun f ->
      let tables =
        [ ("L", Table.create [ a ] [ [| Value.Int 4 |] ]);
          ("R", Table.create [ c ] [ [| Value.Float f |]; [| Value.Float 5.0 |] ]) ]
      in
      let run plan = Exec.run (Exec.context ~crypto:(crypto ()) tables) plan in
      let label = Printf.sprintf "Int 4 = Float %g" f in
      Alcotest.(check int) (label ^ ": one match over the product") 1
        (Table.cardinality (run selected));
      Alcotest.(check bool) (label ^ ": join = select over product") true
        (Table.equal_bag (run joined) (run selected));
      agree ~crypto tables joined;
      agree ~crypto tables selected)
    [ 4.0; 4.001 ]

(* Regression: a multi-column group key joined the cells' keys with
   "\x01", so string cells holding "\x01" shifted the boundary and
   ("a\x01Sb", "c") fell into one group with ("a", "b\x01Sc"). *)
let test_group_key_boundaries () =
  let s1 = Attr.make "s1" and s2 = Attr.make "s2" in
  let t =
    Table.create [ s1; s2 ]
      [ [| Value.Str "a\x01Sb"; Value.Str "c" |];
        [| Value.Str "a"; Value.Str "b\x01Sc" |] ]
  in
  let schema =
    Schema.make ~name:"T" ~owner:"H" [ ("s1", Schema.Tstring); ("s2", Schema.Tstring) ]
  in
  let plan =
    Plan.group_by (Attr.Set.of_list [ s1; s2 ])
      [ Aggregate.make Aggregate.Count_star ] (Plan.base schema)
  in
  Alcotest.(check int) "two groups" 2
    (Table.cardinality (Exec.run (Exec.context [ ("T", t) ]) plan));
  agree [ ("T", t) ] plan

(* Regression: the hash join keyed a det ciphertext ("E…") and a
   plaintext cell ("N…") apart, while its predicate encrypts the
   plaintext and finds them equal: det a = plain c on Int 4 gave no row
   where select over the product gave one. *)
let test_cipher_plain_join () =
  let a = Attr.make "a" and c = Attr.make "c" in
  let crypto () =
    Enc_exec.of_schemes (Mpq_crypto.Keyring.create ~seed:11L ())
      [ ("a", Mpq_crypto.Scheme.Det) ]
  in
  let l = Plan.base (Schema.make ~name:"L" ~owner:"H" [ ("a", Schema.Tint) ]) in
  let r = Plan.base (Schema.make ~name:"R" ~owner:"H" [ ("c", Schema.Tint) ]) in
  let eq = Predicate.conj [ Predicate.Cmp_attr (a, Predicate.Eq, c) ] in
  let enc_l = Plan.encrypt (Attr.Set.singleton a) l in
  let joined = Plan.join eq enc_l r in
  let selected = Plan.select eq (Plan.product enc_l r) in
  let tables =
    [ ("L", Table.create [ a ] [ [| Value.Int 4 |]; [| Value.Int 6 |] ]);
      ("R", Table.create [ c ] [ [| Value.Int 4 |]; [| Value.Int 5 |] ]) ]
  in
  let run plan = Exec.run (Exec.context ~crypto:(crypto ()) tables) plan in
  Alcotest.(check int) "one match over the product" 1 (Table.cardinality (run selected));
  Alcotest.(check int) "one match through the join" 1 (Table.cardinality (run joined));
  Alcotest.(check bool) "join = select over product" true
    (Table.equal_bag (run joined) (run selected));
  agree ~crypto tables joined

(* Regression (QCHECK_SEED=303273332, "properties 0"): an average over
   an average, both at a provider that sees b only encrypted. The inner
   avg left b as an aggregated Paillier value, and the outer one raised
   "cannot aggregate an already-aggregated phe value". A sum or average
   over a sum or average now needs its operand in plaintext, so the
   provider is no candidate for the outer average. *)
let test_avg_over_avg () =
  let attr = Attr.make in
  let b = attr "b" and d = attr "d" and f = attr "f" in
  let avg_b = [ Aggregate.make (Aggregate.Avg b) ] in
  let ds = Attr.Set.singleton d in
  let inner =
    Plan.group_by ds [ Aggregate.make (Aggregate.Count b) ]
      (Plan.project (Attr.Set.of_list [ b; d ]) (Plan.base Gen.rel1))
  in
  let outer = Plan.group_by ds avg_b (Plan.group_by ds avg_b inner) in
  let plan =
    Plan.join
      (Predicate.conj [ Predicate.Cmp_attr (b, Predicate.Eq, f) ])
      outer
      (Plan.project (Attr.Set.of_names [ "e"; "f"; "g" ]) (Plan.base Gen.rel2))
  in
  let x = Subject.provider "X" in
  let policy =
    Authorization.make ~schemas:Gen.schemas
      [ Authorization.rule ~rel:"R1" ~plain:[ "a"; "b"; "c"; "d" ] (To Gen.user);
        Authorization.rule ~rel:"R2" ~plain:[ "e"; "f"; "g" ] (To Gen.user);
        Authorization.rule ~rel:"R1" ~enc:[ "a"; "b"; "c"; "d" ] (To x);
        Authorization.rule ~rel:"R2" ~enc:[ "e"; "f"; "g" ] (To x) ]
  in
  let config = Opreq.resolve_conflicts Opreq.default plan in
  Alcotest.(check bool) "the outer average needs b in plaintext" true
    (Attr.Set.mem b (Opreq.plaintext_attrs config outer));
  (* QCHECK_SEED=18627367: a sum over an average, where Paillier's cent
     image rounded 59.3333 to 59.33 *)
  let sum_over_avg =
    Plan.group_by ds [ Aggregate.make (Aggregate.Sum b) ]
      (Plan.group_by ds avg_b inner)
  in
  Alcotest.(check bool) "a sum over an average needs b in plaintext" true
    (Attr.Set.mem b (Opreq.plaintext_attrs config sum_over_avg));
  (* every node at X where X may run it, as the seed's draw had it *)
  let lam = Candidates.compute ~policy ~subjects:Gen.subjects ~config plan in
  let assignment =
    Plan.fold
      (fun acc n ->
        if Candidates.is_source_side n then acc
        else
          let cands = Candidates.candidates_of lam n in
          Imap.add (Plan.id n)
            (if Subject.Set.mem x cands then x else Subject.Set.min_elt cands)
            acc)
      Imap.empty plan
  in
  Alcotest.(check bool) "X aggregates the inner average" true
    (Subject.equal x (Imap.find (Plan.id (List.hd (Plan.children outer))) assignment));
  let tables =
    [ ("R1",
       Table.of_schema Gen.rel1
         (List.map
            (fun (b, d) -> [| Value.Int 1; Value.Int b; Value.Str "ga"; Value.Int d |])
            [ (3, 1); (5, 1); (8, 2); (2, 2); (9, 2) ]));
      ("R2",
       Table.of_schema Gen.rel2
         (List.map
            (fun e -> [| Value.Int e; Value.Int e; Value.Str "bu" |])
            [ 1; 2; 3 ])) ]
  in
  let ext = Extend.extend ~policy ~config ~assignment ~deliver_to:Gen.user plan in
  let clusters = Plan_keys.compute ~config ~original:plan ext in
  let crypto = Enc_exec.make (Mpq_crypto.Keyring.create ~seed:123L ()) clusters in
  Alcotest.(check bool) "encrypted run = plaintext run" true
    (Table.equal_bag
       (Exec.run (Exec.context tables) plan)
       (Exec.run (Exec.context ~crypto tables) ext.Extend.plan))

(* Int and Float keys around 2^53 through the hash join and group-by, on
   typed (all-Int, all-Float) and mixed columns *)
let test_keys_at_2_53 () =
  let ints = [ two_53 - 1; two_53; two_53 + 1; two_53 + 2; 7 ] in
  let floats = [ 9007199254740991.0; 9007199254740992.0; 9007199254740994.0; 7.0 ] in
  let rel name col cells =
    ( (name, Table.create [ Attr.make col ] (List.map (fun v -> [| v |]) cells)),
      Plan.base (Schema.make ~name ~owner:"H" [ (col, Schema.Tint) ]) )
  in
  let sides =
    [ rel "I" "a" (List.map (fun i -> Value.Int i) ints);
      rel "F" "c" (List.map (fun f -> Value.Float f) floats);
      rel "M" "c"
        (Value.Null :: List.map (fun i -> Value.Int i) ints
        @ List.map (fun f -> Value.Float f) floats) ]
  in
  let (l, lplan) = List.nth sides 0 in
  List.iter
    (fun (r, rplan) ->
      let eq = Predicate.conj [ Predicate.Cmp_attr (Attr.make "a", Predicate.Eq, Attr.make "c") ] in
      agree [ l; r ] (Plan.join eq lplan rplan);
      agree [ r ]
        (Plan.group_by (Attr.Set.of_names [ "c" ])
           [ Aggregate.make Aggregate.Count_star ] rplan))
    (List.tl sides)

(* Count over a randomized-encrypted operand encrypts each group's count
   under a generator derived from the group's index *)
let test_group_randomness () =
  let t =
    Table.create [ Attr.make "g"; Attr.make "v" ]
      (List.init 90 (fun i -> [| Value.Int (i mod 7); Value.Int i |]))
  in
  let schema = Schema.make ~name:"T" ~owner:"H" [ ("g", Schema.Tint); ("v", Schema.Tint) ] in
  let crypto () =
    Enc_exec.of_schemes (Mpq_crypto.Keyring.create ~seed:5L ()) [ ("v", Mpq_crypto.Scheme.Rnd) ]
  in
  agree ~crypto [ ("T", t) ]
    (Plan.group_by (Attr.Set.of_names [ "g" ])
       [ Aggregate.make (Aggregate.Count (Attr.make "v")) ]
       (Plan.encrypt (Attr.Set.of_names [ "v" ]) (Plan.base schema)))

(* every TPC-H query under every scenario, extended plans over ciphertext *)
let test_tpch_row_oracle () =
  let sf = 0.0005 in
  let data = Tpch.Tpch_data.generate ~sf () in
  let tables =
    List.map
      (fun (s : Schema.t) ->
        (s.Schema.name, Table.of_schema s (List.assoc s.Schema.name data)))
      Tpch.Tpch_schema.all
  in
  List.iter
    (fun (q, _, _) ->
      List.iter
        (fun sc ->
          let r =
            Tpch.Scenarios.optimize ~sf ~fold_leaf_filters:false ~scenario:sc
              (Tpch.Tpch_queries.query q)
          in
          let ctx () =
            let keyring = Mpq_crypto.Keyring.create ~seed:42L () in
            let crypto = Enc_exec.make keyring r.Planner.Optimizer.clusters in
            Exec.context ~udfs:Tpch.Tpch_queries.udf_impls ~crypto tables
          in
          let label = Printf.sprintf "q%d %s" q (Tpch.Scenarios.name sc) in
          Alcotest.(check bool) label true
            (check_against_oracle ~label ctx
               r.Planner.Optimizer.extended.Authz.Extend.plan))
        Tpch.Scenarios.all)
    Tpch.Tpch_queries.all

let () =
  Alcotest.run "exec-equivalence"
    [ ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_encrypted_equals_plain; prop_monitor_clean ] );
      ( "regressions",
        [ ("mixed Int/Float hash join", `Quick, test_mixed_numeric_hash_join);
          ("OPE keeps an avg's full precision", `Quick, test_ope_float_precision);
          ("OPE join keys tie at cent precision", `Quick, test_ope_join_cent_ties);
          ("group key cells keep their boundaries", `Quick, test_group_key_boundaries);
          ("det column = plain column on Int 4", `Quick, test_cipher_plain_join);
          ("sum or avg over avg under PHE", `Quick, test_avg_over_avg) ]
      );
      ( "row oracle",
        [ QCheck_alcotest.to_alcotest prop_row_oracle;
          ("join match order", `Quick, test_join_match_order);
          ("Int/Float keys at 2^53", `Quick, test_keys_at_2_53);
          ("per-group randomness", `Quick, test_group_randomness);
          ("22 queries x 3 scenarios", `Slow, test_tpch_row_oracle);
          QCheck_alcotest.to_alcotest prop_kernels;
          ("kernel edge cases", `Quick, test_kernel_edges);
          ("a join with an empty side seals", `Quick, test_empty_join_seals);
          QCheck_alcotest.to_alcotest prop_nothing_escapes ] ) ]
