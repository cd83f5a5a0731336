(* Dispatch fragments (Sec. 6, Fig. 8) and the distributed execution
   simulator: envelope security, key distribution checks, release checks,
   and end-to-end correctness. *)

open Relalg
open Authz
open Paper_example

let planned assignment_of =
  let n = build_plan () in
  let config = Opreq.resolve_conflicts Opreq.default n.plan in
  let ext =
    Extend.extend ~policy ~config ~assignment:(assignment_of n) ~deliver_to:u
      n.plan
  in
  let clusters = Plan_keys.compute ~config ~original:n.plan ext in
  (n, ext, clusters)

(* --- fragments -------------------------------------------------------- *)

let test_fragments_partition () =
  let _, ext, _ = planned assignment_7a in
  let roots = Dispatch.fragment_roots ext in
  (* every node belongs to exactly one fragment: walking up from any node,
     the first fragment root found determines its fragment; each root's
     executor matches the node's executor within the fragment *)
  let parent_of =
    let tbl = Hashtbl.create 32 in
    Plan.iter
      (fun n ->
        List.iter (fun c -> Hashtbl.replace tbl (Plan.id c) n) (Plan.children n))
      ext.Extend.plan;
    tbl
  in
  let rec fragment_root n =
    if List.mem_assoc (Plan.id n) roots then Plan.id n
    else
      match Hashtbl.find_opt parent_of (Plan.id n) with
      | Some p -> fragment_root p
      | None -> Alcotest.fail "node outside every fragment"
  in
  Plan.iter
    (fun n ->
      let root = fragment_root n in
      let root_subject = List.assoc root roots in
      let own_subject = Imap.find (Plan.id n) ext.Extend.assignment in
      Alcotest.(check bool)
        (Printf.sprintf "node %d executor matches fragment root" (Plan.id n))
        true
        (Subject.equal root_subject own_subject))
    ext.Extend.plan

let test_requests_dependency_order () =
  let _, ext, clusters = planned assignment_7a in
  let requests = Dispatch.requests ext clusters in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : Dispatch.request) ->
      List.iter
        (fun callee ->
          Alcotest.(check bool)
            (Printf.sprintf "%s called by %s defined before" callee
               r.Dispatch.name)
            true (Hashtbl.mem seen callee))
        r.Dispatch.calls;
      Hashtbl.replace seen r.Dispatch.name ())
    requests;
  (* the last request is the top fragment with no caller *)
  let last = List.nth requests (List.length requests - 1) in
  Alcotest.(check bool) "top fragment last" true
    (List.for_all
       (fun (r : Dispatch.request) ->
         not (List.mem last.Dispatch.name r.Dispatch.calls))
       requests)

let test_request_names_unique () =
  let _, ext, clusters = planned assignment_7a in
  let requests = Dispatch.requests ext clusters in
  let names = List.map (fun r -> r.Dispatch.name) requests in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- PKI --------------------------------------------------------------- *)

let test_pki_roundtrip () =
  let pki = Distsim.Pki.create () in
  let sealed = Distsim.Pki.seal pki ~sender:"U" ~recipient:"X" "hello" in
  Alcotest.(check string) "roundtrip" "hello"
    (Distsim.Pki.open_ pki ~recipient:"X" sealed)

let test_pki_wrong_recipient () =
  let pki = Distsim.Pki.create () in
  let sealed = Distsim.Pki.seal pki ~sender:"U" ~recipient:"X" "secret" in
  Alcotest.check_raises "wrong recipient"
    (Distsim.Pki.Bad_envelope "envelope addressed to a different subject")
    (fun () -> ignore (Distsim.Pki.open_ pki ~recipient:"Y" sealed));
  (* even claiming to be X doesn't help without X's box key *)
  let stolen = { sealed with Distsim.Pki.recipient = "Y" } in
  Alcotest.check_raises "re-addressed envelope fails decryption"
    (Distsim.Pki.Bad_envelope "decryption failure") (fun () ->
      ignore (Distsim.Pki.open_ pki ~recipient:"Y" stolen))

let test_pki_forged_signature () =
  let pki = Distsim.Pki.create () in
  let sealed = Distsim.Pki.seal pki ~sender:"U" ~recipient:"X" "pay 100" in
  let forged = { sealed with Distsim.Pki.sender = "Z" } in
  (* Z's box key differs, so decryption already fails — exactly what the
     sender-bound box gives us *)
  Alcotest.check_raises "forged sender"
    (Distsim.Pki.Bad_envelope "decryption failure") (fun () ->
      ignore (Distsim.Pki.open_ pki ~recipient:"X" forged))

let flip_bit s i =
  String.mapi
    (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
    s

let test_pki_tampered_ciphertext () =
  let pki = Distsim.Pki.create () in
  let sealed = Distsim.Pki.seal pki ~sender:"U" ~recipient:"X" "pay 100" in
  (* flipping any ciphertext bit must trip the authenticated envelope,
     wherever the flip lands (IV, body or tag) *)
  for i = 0 to String.length sealed.Distsim.Pki.ciphertext - 1 do
    let tampered =
      { sealed with
        Distsim.Pki.ciphertext = flip_bit sealed.Distsim.Pki.ciphertext i }
    in
    match Distsim.Pki.open_ pki ~recipient:"X" tampered with
    | _ -> Alcotest.failf "tampered byte %d accepted" i
    | exception Distsim.Pki.Bad_envelope _ -> ()
  done

let test_pki_tampered_signature () =
  let pki = Distsim.Pki.create () in
  let sealed = Distsim.Pki.seal pki ~sender:"U" ~recipient:"X" "pay 100" in
  for i = 0 to String.length sealed.Distsim.Pki.signature - 1 do
    let tampered =
      { sealed with
        Distsim.Pki.signature = flip_bit sealed.Distsim.Pki.signature i }
    in
    Alcotest.check_raises
      (Printf.sprintf "signature byte %d" i)
      (Distsim.Pki.Bad_envelope "signature verification failure")
      (fun () -> ignore (Distsim.Pki.open_ pki ~recipient:"X" tampered))
  done

(* --- end-to-end simulation -------------------------------------------- *)

let run_sim assignment_of =
  let _, ext, clusters = planned assignment_of in
  Distsim.Runtime.execute ~policy ~pki:(Distsim.Pki.create ())
    ~keyring:(Mpq_crypto.Keyring.create ~seed:5L ())
    ~user:u
    ~tables:(Test_engine_data.tables ())
    ~extended:ext ~clusters ()

let expected = Test_engine_data.expected

let test_sim_correct_result () =
  let outcome = run_sim assignment_7a in
  Alcotest.(check bool) "result" true
    (Engine.Table.equal_bag (Distsim.Runtime.result outcome) (expected ()))

let test_sim_trace_complete () =
  let outcome = run_sim assignment_7a in
  let count pred = List.length (List.filter pred outcome.Distsim.Runtime.trace) in
  Alcotest.(check int) "four requests sent" 4
    (count (function Distsim.Runtime.Request_sent _ -> true | _ -> false));
  Alcotest.(check int) "four requests opened" 4
    (count (function Distsim.Runtime.Request_opened _ -> true | _ -> false));
  Alcotest.(check bool) "release checks happened" true
    (count (function Distsim.Runtime.Release_check _ -> true | _ -> false) >= 3);
  Alcotest.(check bool) "key checks happened" true
    (count (function Distsim.Runtime.Key_check _ -> true | _ -> false) >= 1)

let test_sim_7b_also_works () =
  let outcome = run_sim assignment_7b in
  Alcotest.(check bool) "7(b) result" true
    (Engine.Table.equal_bag (Distsim.Runtime.result outcome) (expected ()))

(* Transfers are priced by [Table.byte_size] as if every ciphertext
   were materialized. In [select T, P from Hosp join Ins on S=C] with
   the join and projection at Z, the insurer ships P encrypted under
   rnd (nothing operates on it), and the transfer sizes are pinned to
   what eager encryption gave. *)
let test_sim_transfer_bytes () =
  let proj = Plan.project (attrs [ "S"; "T" ]) (Plan.base hosp) in
  let join =
    Plan.join
      (Predicate.conj [ Predicate.Cmp_attr (a "S", Predicate.Eq, a "C") ])
      proj (Plan.base ins)
  in
  let plan = Plan.project (attrs [ "T"; "P" ]) join in
  let config = Opreq.resolve_conflicts Opreq.default plan in
  let extended =
    Extend.extend ~policy ~config
      ~assignment:(Imap.of_list [ (Plan.id join, z); (Plan.id plan, z) ])
      ~deliver_to:u plan
  in
  let clusters = Plan_keys.compute ~config ~original:plan extended in
  let outcome =
    Distsim.Runtime.execute ~policy ~pki:(Distsim.Pki.create ())
      ~keyring:(Mpq_crypto.Keyring.create ~seed:5L ())
      ~user:u ~tables:(Test_engine_data.tables ())
      ~extended ~clusters ()
  in
  let transfers =
    List.filter_map
      (function
        | Distsim.Runtime.Data_transfer { from_; to_; rows; bytes; _ } ->
            Some
              (Printf.sprintf "%s->%s %d rows %d bytes" (Subject.name from_)
                 (Subject.name to_) rows bytes)
        | _ -> None)
      outcome.Distsim.Runtime.trace
  in
  Alcotest.(check (list string)) "P is the one cluster, under rnd" [ "P rnd" ]
    (List.map
       (fun (c : Plan_keys.cluster) ->
         c.Plan_keys.id ^ " " ^ Mpq_crypto.Scheme.name c.Plan_keys.scheme)
       clusters);
  Alcotest.(check (list string)) "transfers"
    [ "H->Z 5 rows 45 bytes"; "I->Z 5 rows 160 bytes"; "Z->U 4 rows 128 bytes" ]
    transfers

let test_sim_detects_missing_key () =
  let _, ext, clusters = planned assignment_7a in
  (* strip Y from kP's holders: the decrypt at Y must be flagged *)
  let clusters' =
    List.map
      (fun (c : Plan_keys.cluster) ->
        if c.Plan_keys.id = "P" then
          { c with Plan_keys.holders = Subject.Set.remove y c.Plan_keys.holders }
        else c)
      clusters
  in
  match
    Distsim.Runtime.execute ~policy ~pki:(Distsim.Pki.create ())
      ~keyring:(Mpq_crypto.Keyring.create ())
      ~user:u
      ~tables:(Test_engine_data.tables ())
      ~extended:ext ~clusters:clusters' ()
  with
  | _ -> Alcotest.fail "expected Distributed_violation"
  | exception Distsim.Runtime.Distributed_violation _ -> ()

let () =
  Alcotest.run "distsim"
    [ ( "dispatch",
        [ ("fragments partition the plan", `Quick, test_fragments_partition);
          ("dependency order", `Quick, test_requests_dependency_order);
          ("unique names", `Quick, test_request_names_unique) ] );
      ( "pki",
        [ ("seal/open roundtrip", `Quick, test_pki_roundtrip);
          ("wrong recipient rejected", `Quick, test_pki_wrong_recipient);
          ("forged sender rejected", `Quick, test_pki_forged_signature);
          ("tampered ciphertext rejected", `Quick, test_pki_tampered_ciphertext);
          ("tampered signature rejected", `Quick, test_pki_tampered_signature)
        ] );
      ( "runtime",
        [ ("correct result (7a)", `Quick, test_sim_correct_result);
          ("trace is complete and clean", `Quick, test_sim_trace_complete);
          ("correct result (7b)", `Quick, test_sim_7b_also_works);
          ("missing key detected", `Quick, test_sim_detects_missing_key);
          ("transfer sizes unchanged", `Quick, test_sim_transfer_bytes) ] ) ]
