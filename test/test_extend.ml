(* Minimally extended plans (Def. 5.4) against Thm. 5.2 and Thm. 5.3:

   - completeness (5.2 ii): any assignment drawn from the candidate sets
     can be made authorized by the injected encryption/decryption;
   - soundness (5.2 i): an assignment that verifies authorized on the
     extended plan only uses candidates;
   - 5.3 (i): the produced extension verifies;
   - 5.3 (ii): every injected encryption is justified by Def. 5.4's
     formula (no gratuitous encryption), and extensions never encrypt
     more than the encrypt-everything strategy of the minimum required
     views. *)

open Relalg
open Authz

(* draw one assignment from the candidate sets, seeded deterministically *)
let draw_assignment st lam plan =
  Plan.fold
    (fun acc n ->
      if Candidates.is_source_side n then acc
      else
        let cands = Subject.Set.elements (Candidates.candidates_of lam n) in
        match cands with
        | [] -> acc (* unplannable node: caller filters *)
        | _ ->
            let i = QCheck.Gen.int_bound (List.length cands - 1) st in
            Imap.add (Plan.id n) (List.nth cands i) acc)
    Imap.empty plan

let all_assignable_covered lam assignment plan =
  Plan.fold
    (fun acc n ->
      acc
      && (Candidates.is_source_side n
         || Imap.mem (Plan.id n) assignment
         || Subject.Set.is_empty (Candidates.candidates_of lam n)))
    true plan

let gen_case =
  QCheck.Gen.(
    Gen.gen_plan >>= fun plan ->
    Gen.gen_policy >>= fun policy ->
    fun st ->
      let config = Opreq.resolve_conflicts Opreq.default plan in
      let lam =
        Candidates.compute ~policy ~subjects:Gen.subjects ~config plan
      in
      let assignment = draw_assignment st lam plan in
      (plan, policy, config, lam, assignment))

let arbitrary_case =
  QCheck.make
    ~print:(fun (plan, _, _, _, _) -> Plan_printer.to_ascii plan)
    gen_case

let plannable lam assignment plan =
  Plan.fold
    (fun acc n ->
      acc
      && (Candidates.is_source_side n || Imap.mem (Plan.id n) assignment))
    true plan
  && all_assignable_covered lam assignment plan

(* --- Thm. 5.2 (ii) + 5.3 (i): drawn-from-Λ assignments verify -------- *)

let prop_completeness =
  QCheck.Test.make ~count:300
    ~name:"Thm 5.2(ii)/5.3(i): any λ ∈ Λ extends to an authorized plan"
    arbitrary_case (fun (plan, policy, config, lam, assignment) ->
      QCheck.assume (plannable lam assignment plan);
      let ext = Extend.extend ~policy ~config ~assignment plan in
      match Extend.verify ~policy ext with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "verification failed: %s" msg)

(* --- Thm. 5.2 (i): authorized assignments are candidates ------------- *)

let prop_soundness =
  QCheck.Test.make ~count:300
    ~name:"Thm 5.2(i): assignments that verify use only candidates"
    (QCheck.make
       ~print:(fun (plan, _, _) -> Plan_printer.to_ascii plan)
       QCheck.Gen.(
         Gen.gen_plan >>= fun plan ->
         Gen.gen_policy >>= fun policy ->
         fun st ->
           (* arbitrary assignment over ALL subjects, not just candidates *)
           let assignment =
             Plan.fold
               (fun acc n ->
                 if Candidates.is_source_side n then acc
                 else
                   let i =
                     QCheck.Gen.int_bound (List.length Gen.subjects - 1) st
                   in
                   Imap.add (Plan.id n) (List.nth Gen.subjects i) acc)
               Imap.empty plan
           in
           (plan, policy, assignment)))
    (fun (plan, policy, assignment) ->
      let config = Opreq.resolve_conflicts Opreq.default plan in
      match Extend.extend ~policy ~config ~assignment plan with
      | exception Profile.Not_executable _ ->
          true (* the arbitrary assignment wasn't executable at all *)
      | ext -> (
          match Extend.verify ~policy ext with
          | Error _ -> true (* unauthorized: nothing to check *)
          | Ok () ->
              (* authorized: Thm 5.2(i) says it must be within Λ *)
              let lam =
                Candidates.compute ~policy ~subjects:Gen.subjects ~config plan
              in
              Candidates.valid_assignment lam assignment))

(* --- Thm. 5.3 (ii): minimality --------------------------------------- *)

(* Every Encrypt node's attribute set is justified: an attribute is
   encrypted only if some ancestor's executor may not see it plaintext
   (Def. 5.4's two terms), or it is compared with such an attribute
   (uniform-visibility repair: the comparison must run over ciphertext,
   so its plaintext side is encrypted under the shared cluster key). *)
let justified_encryptions policy (ext : Extend.t) plan_orig =
  let root_eq = (Profile.of_plan plan_orig).Profile.eq in
  let parents =
    let tbl = Hashtbl.create 32 in
    Plan.iter
      (fun n ->
        List.iter (fun c -> Hashtbl.replace tbl (Plan.id c) n) (Plan.children n))
      ext.Extend.plan;
    tbl
  in
  let executor n = Imap.find (Plan.id n) ext.Extend.assignment in
  let rec ancestors n =
    match Hashtbl.find_opt parents (Plan.id n) with
    | None -> []
    | Some p -> p :: ancestors p
  in
  Plan.fold
    (fun acc n ->
      acc
      &&
      match Plan.node n with
      | Plan.Encrypt (attrs, _) ->
          let ancs = ancestors n in
          let protected_above a =
            List.exists
              (fun anc ->
                let view = Authorization.view policy (executor anc) in
                Attr.Set.mem a view.Authorization.enc)
              ancs
          in
          List.for_all
            (fun a ->
              protected_above a
              || List.exists protected_above
                   (Attr.Set.elements (Partition.find root_eq a)))
            (Attr.Set.elements attrs)
      | _ -> acc)
    true ext.Extend.plan

let prop_minimality_justified =
  QCheck.Test.make ~count:300
    ~name:"Thm 5.3(ii): every encryption is demanded by some ancestor's view"
    arbitrary_case (fun (plan, policy, config, lam, assignment) ->
      QCheck.assume (plannable lam assignment plan);
      let ext = Extend.extend ~policy ~config ~assignment plan in
      justified_encryptions policy ext plan)

(* the extension never encrypts more than the encrypt-everything bound *)
let prop_minimality_bounded =
  QCheck.Test.make ~count:300
    ~name:"Thm 5.3(ii): encrypted set within the min-view upper bound"
    arbitrary_case (fun (plan, policy, config, lam, assignment) ->
      QCheck.assume (plannable lam assignment plan);
      let ext = Extend.extend ~policy ~config ~assignment plan in
      (* the min-required-view strategy encrypts every visible attribute
         that some node may not see plaintext — a superset of all attrs *)
      let all =
        Plan.fold
          (fun acc n -> Attr.Set.union acc (Plan.schema n))
          Attr.Set.empty plan
      in
      Attr.Set.subset (Extend.encrypted_attrs ext) all)

(* deliver_to produces an all-plaintext root *)
let prop_deliver_to_decrypts =
  QCheck.Test.make ~count:200 ~name:"deliver_to leaves no ciphertext at root"
    arbitrary_case (fun (plan, policy, config, lam, assignment) ->
      QCheck.assume (plannable lam assignment plan);
      let ext =
        Extend.extend ~policy ~config ~assignment ~deliver_to:Gen.user plan
      in
      let root_profile =
        Hashtbl.find ext.Extend.profiles (Plan.id ext.Extend.plan)
      in
      Attr.Set.is_empty root_profile.Profile.ve)

(* stripping the crypto operators recovers the original plan shape *)
let prop_strip_recovers =
  QCheck.Test.make ~count:200 ~name:"strip_crypto(extended) = original"
    arbitrary_case (fun (plan, policy, config, lam, assignment) ->
      QCheck.assume (plannable lam assignment plan);
      let ext = Extend.extend ~policy ~config ~assignment plan in
      Plan.equal_shape (Plan.strip_crypto ext.Extend.plan) (Plan.strip_crypto plan))

(* The paper's key-distribution claim (Sec. 6): "since such subjects are
   authorized for the encryption/decryption operation (i.e., they are
   authorized for plaintext visibility of the attributes to be
   encrypted/decrypted in the operand relation), key distribution obeys
   authorizations". Check it on random cases: every crypto operator's
   executor holds plaintext rights over the attributes it transforms. *)
let prop_key_distribution_obeys_authorizations =
  QCheck.Test.make ~count:300
    ~name:"crypto operators run under plaintext-authorized subjects"
    arbitrary_case (fun (plan, policy, config, lam, assignment) ->
      QCheck.assume (plannable lam assignment plan);
      let ext =
        Extend.extend ~policy ~config ~assignment ~deliver_to:Gen.user plan
      in
      Plan.fold
        (fun acc n ->
          acc
          &&
          match Plan.node n with
          | Plan.Encrypt (attrs, _) | Plan.Decrypt (attrs, _) ->
              let s = Imap.find (Plan.id n) ext.Extend.assignment in
              let view = Authorization.view policy s in
              Attr.Set.subset attrs view.Authorization.plain
          | _ -> acc)
        true ext.Extend.plan)

(* dispatch structure on random cases *)
let prop_dispatch_structure =
  QCheck.Test.make ~count:200 ~name:"fragments partition, calls in order"
    arbitrary_case (fun (plan, policy, config, lam, assignment) ->
      QCheck.assume (plannable lam assignment plan);
      let ext =
        Extend.extend ~policy ~config ~assignment ~deliver_to:Gen.user plan
      in
      let clusters = Plan_keys.compute ~config ~original:plan ext in
      let requests = Dispatch.requests ext clusters in
      (* dependency order *)
      let seen = Hashtbl.create 8 in
      let ordered =
        List.for_all
          (fun (r : Dispatch.request) ->
            let ok = List.for_all (Hashtbl.mem seen) r.Dispatch.calls in
            Hashtbl.replace seen r.Dispatch.name ();
            ok)
          requests
      in
      (* every fragment root id is a node of the plan, ids unique *)
      let ids = List.map (fun r -> r.Dispatch.root_id) requests in
      ordered
      && List.length ids = List.length (List.sort_uniq compare ids)
      && List.for_all (fun id -> Plan.find ext.Extend.plan id <> None) ids)

let () =
  Alcotest.run "extend"
    [ ( "thm-5.2-5.3",
        List.map QCheck_alcotest.to_alcotest
          [ prop_completeness; prop_soundness; prop_minimality_justified;
            prop_minimality_bounded; prop_deliver_to_decrypts;
            prop_strip_recovers; prop_key_distribution_obeys_authorizations;
            prop_dispatch_structure ] ) ]
