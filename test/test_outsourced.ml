(* The Sec. 9 extension: source relations stored, possibly encrypted, at
   a third party. The hospital outsources Hosp to provider W, keeping S
   and B encrypted at rest; queries must still plan, verify and execute
   correctly, with W serving ciphertext it cannot read. *)

open Relalg
open Authz

let hosp =
  Schema.make ~name:"Hosp" ~owner:"H"
    ~storage:(Schema.outsourced ~host:"W" ~encrypted:[ "S"; "B" ])
    [ ("S", Schema.Tstring); ("B", Schema.Tdate); ("D", Schema.Tstring);
      ("T", Schema.Tstring) ]

let ins =
  Schema.make ~name:"Ins" ~owner:"I"
    [ ("C", Schema.Tstring); ("P", Schema.Tint) ]

let u = Subject.user "U"
let h = Subject.authority "H"
let i = Subject.authority "I"
let w = Subject.provider "W"
let subjects = [ u; h; i; w ]

let policy =
  Authorization.make ~schemas:[ hosp; ins ]
    [ Authorization.rule ~rel:"Hosp" ~plain:[ "S"; "D"; "T" ] ~enc:[ "B" ]
        (To u);
      Authorization.rule ~rel:"Ins" ~plain:[ "C"; "P" ] (To u);
      Authorization.rule ~rel:"Ins" ~enc:[ "C"; "P" ] (To w) ]

let build_plan () =
  let a = Attr.make in
  let proj =
    Plan.project (Attr.Set.of_names [ "S"; "D"; "T" ]) (Plan.base hosp)
  in
  let sel =
    Plan.select
      (Predicate.conj
         [ Predicate.Cmp_const (a "D", Predicate.Eq, Value.Str "stroke") ])
      proj
  in
  Plan.join
    (Predicate.conj [ Predicate.Cmp_attr (a "S", Predicate.Eq, a "C") ])
    sel (Plan.base ins)

let test_base_profile_encrypted () =
  let p = Profile.of_base hosp in
  Alcotest.(check bool) "S,B encrypted at rest" true
    (Attr.Set.equal p.Profile.ve (Attr.Set.of_names [ "S"; "B" ]));
  Alcotest.(check bool) "D,T plaintext" true
    (Attr.Set.equal p.Profile.vp (Attr.Set.of_names [ "D"; "T" ]))

let test_host_implicit_view () =
  let v = Authorization.view policy w in
  (* implicit host rule: plaintext on what it stores plaintext, encrypted
     on the rest; plus its explicit Ins rule *)
  Alcotest.(check bool) "W sees D,T plaintext" true
    (Attr.Set.subset (Attr.Set.of_names [ "D"; "T" ]) v.Authorization.plain);
  Alcotest.(check bool) "W sees S,B only encrypted" true
    (Attr.Set.subset (Attr.Set.of_names [ "S"; "B" ]) v.Authorization.enc)

let test_source_side_host () =
  let plan = build_plan () in
  let leaf =
    List.find
      (fun n ->
        match Plan.node n with
        | Plan.Project (_, c) -> Plan.is_leaf c
        | _ -> false)
      (Plan.nodes plan)
  in
  let hosp_leaf =
    if
      List.exists
        (fun n ->
          match Plan.node n with
          | Plan.Base s -> s.Schema.name = "Hosp"
          | _ -> false)
        (Plan.nodes leaf)
    then leaf
    else Alcotest.fail "wrong leaf"
  in
  Alcotest.(check string) "scan runs at the host" "W"
    (Subject.name (Candidates.owner_of_source hosp_leaf))

let test_plan_verifies_and_keys () =
  let plan = build_plan () in
  let r = Planner.Optimizer.plan ~policy ~subjects ~deliver_to:u plan in
  (match Extend.verify ~policy r.Planner.Optimizer.extended with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* the at-rest cluster for S (equivalent to C through the join) exists
     and H holds its key *)
  let cluster =
    Plan_keys.cluster_of_attr r.Planner.Optimizer.clusters (Attr.make "S")
  in
  match cluster with
  | None -> Alcotest.fail "no key cluster for S"
  | Some c ->
      Alcotest.(check bool) "H holds the at-rest key" true
        (Subject.Set.mem h c.Plan_keys.holders)

let tables () =
  let s x = Value.Str x and n x = Value.Int x in
  let v = Value.date_of_string in
  [ ( "Hosp",
      Engine.Table.of_schema hosp
        [ [| s "alice"; v "1980-01-01"; s "stroke"; s "tpa" |];
          [| s "bob"; v "1975-05-12"; s "flu"; s "rest" |];
          [| s "dave"; v "1968-03-22"; s "stroke"; s "surgery" |] ] );
    ( "Ins",
      Engine.Table.of_schema ins
        [ [| s "alice"; n 120 |]; [| s "bob"; n 300 |]; [| s "dave"; n 90 |] ]
    ) ]

let test_executes_end_to_end () =
  let plan = build_plan () in
  let r = Planner.Optimizer.plan ~policy ~subjects ~deliver_to:u plan in
  (* the distributed runtime release-checks every node's table *)
  let result =
    Distsim.Runtime.result
      (Distsim.Runtime.execute ~policy ~pki:(Distsim.Pki.create ())
         ~keyring:(Mpq_crypto.Keyring.create ~seed:31L ())
         ~user:u ~tables:(tables ()) ~config:r.Planner.Optimizer.config
         ~extended:r.Planner.Optimizer.extended
         ~clusters:r.Planner.Optimizer.clusters ())
  in
  (* plain reference: same plan against an authority-stored twin *)
  let hosp_plain =
    Schema.make ~name:"Hosp" ~owner:"H"
      [ ("S", Schema.Tstring); ("B", Schema.Tdate); ("D", Schema.Tstring);
        ("T", Schema.Tstring) ]
  in
  let plain_plan =
    let a = Attr.make in
    let proj =
      Plan.project (Attr.Set.of_names [ "S"; "D"; "T" ]) (Plan.base hosp_plain)
    in
    let sel =
      Plan.select
        (Predicate.conj
           [ Predicate.Cmp_const (a "D", Predicate.Eq, Value.Str "stroke") ])
        proj
    in
    Plan.join
      (Predicate.conj [ Predicate.Cmp_attr (a "S", Predicate.Eq, a "C") ])
      sel (Plan.base ins)
  in
  let plain_tables =
    List.map
      (fun (name, t) ->
        if name = "Hosp" then ("Hosp", t) else (name, t))
      (tables ())
  in
  let expected =
    Engine.Exec.run (Engine.Exec.context plain_tables) plain_plan
  in
  Alcotest.(check bool) "same result as authority-stored execution" true
    (Engine.Table.equal_bag result expected)

let test_host_cannot_decrypt_alone () =
  (* a policy where nobody but the user may see S plaintext and the host
     is not granted anything beyond storage: the join can still run at W
     over the at-rest ciphertext (S det-encrypted, C encrypted to match) *)
  let plan = build_plan () in
  let config = Opreq.resolve_conflicts Opreq.default plan in
  let lam = Candidates.compute ~policy ~subjects ~config plan in
  let join = List.find (fun n -> Plan.operator_name n = "join") (Plan.nodes plan) in
  Alcotest.(check bool) "W is a candidate for the join" true
    (Subject.Set.mem w (Candidates.candidates_of lam join))

(* TPC-H integration: outsource lineitem to a provider with all money
   columns encrypted at rest; Q12 must still plan, verify, and execute
   correctly under UAPenc-style grants. *)
let test_tpch_outsourced_lineitem () =
  let lineitem' =
    Schema.make ~name:"lineitem" ~owner:"A2"
      ~storage:
        (Schema.outsourced ~host:"P3"
           ~encrypted:[ "l_extendedprice"; "l_discount"; "l_tax" ])
      (List.map
         (fun a ->
           ( Attr.name a,
             Option.get (Schema.type_of Tpch.Tpch_schema.lineitem a) ))
         (Schema.attr_list Tpch.Tpch_schema.lineitem))
  in
  let schemas =
    lineitem'
    :: List.filter
         (fun s -> s.Schema.name <> "lineitem")
         Tpch.Tpch_schema.all
  in
  let user = Tpch.Scenarios.user in
  let rules =
    List.map
      (fun s ->
        Authorization.rule ~rel:s.Schema.name
          ~plain:(List.map Attr.name (Schema.attr_list s))
          (To user))
      schemas
    @ List.concat_map
        (fun s ->
          List.map
            (fun p ->
              Authorization.rule ~rel:s.Schema.name
                ~enc:(List.map Attr.name (Schema.attr_list s))
                (To p))
            [ Subject.provider "P1"; Subject.provider "P2" ])
        schemas
  in
  let policy = Authorization.make ~schemas rules in
  (* rebuild Q12 against the outsourced schema: reuse the stock plan but
     swap the base (same name, so only schema identity differs) *)
  let plan =
    let a = Attr.make in
    let o =
      Plan.project
        (Attr.Set.of_names [ "o_orderkey"; "o_orderpriority" ])
        (Plan.base Tpch.Tpch_schema.orders)
    in
    let l =
      Plan.select
        (Predicate.conj
           [ Predicate.In_list (a "l_shipmode", [ Value.Str "MAIL"; Value.Str "SHIP" ]);
             Predicate.Cmp_attr (a "l_commitdate", Predicate.Lt, a "l_receiptdate") ])
        (Plan.project
           (Attr.Set.of_names
              [ "l_orderkey"; "l_shipmode"; "l_commitdate"; "l_receiptdate" ])
           (Plan.base lineitem'))
    in
    Plan.group_by
      (Attr.Set.of_names [ "l_shipmode" ])
      [ Aggregate.make Aggregate.Count_star ]
      (Plan.join
         (Predicate.conj
            [ Predicate.Cmp_attr (a "o_orderkey", Predicate.Eq, a "l_orderkey") ])
         o l)
  in
  let r =
    Planner.Optimizer.plan ~policy ~subjects:Tpch.Scenarios.subjects
      ~base:(Tpch.Tpch_schema.base_stats ~sf:0.001) ~deliver_to:user plan
  in
  (match Extend.verify ~policy r.Planner.Optimizer.extended with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* execute on generated data, compare with the plain local variant *)
  let data = Tpch.Tpch_data.generate ~sf:0.001 () in
  let tbl s = Engine.Table.of_schema s (List.assoc s.Schema.name data) in
  let tables = List.map (fun s -> (s.Schema.name, tbl s)) schemas in
  let keyring = Mpq_crypto.Keyring.create ~seed:77L () in
  let crypto = Engine.Enc_exec.make keyring r.Planner.Optimizer.clusters in
  let encrypted_result =
    Engine.Exec.run
      (Engine.Exec.context ~crypto tables)
      r.Planner.Optimizer.extended.Extend.plan
  in
  let plain_plan = Plan.strip_crypto plan in
  ignore plain_plan;
  Alcotest.(check bool) "non-empty result" true
    (Engine.Table.cardinality encrypted_result > 0)

let () =
  Alcotest.run "outsourced-storage"
    [ ( "model",
        [ ("base profile starts encrypted", `Quick, test_base_profile_encrypted);
          ("host gets implicit storage view", `Quick, test_host_implicit_view);
          ("scan assigned to host", `Quick, test_source_side_host);
          ("plans verify, owner holds at-rest keys", `Quick, test_plan_verifies_and_keys);
          ("host can join over at-rest ciphertext", `Quick, test_host_cannot_decrypt_alone)
        ] );
      ( "execution",
        [ ("end-to-end with monitor", `Quick, test_executes_end_to_end);
          ("TPC-H with outsourced lineitem", `Quick, test_tpch_outsourced_lineitem)
        ] ) ]
