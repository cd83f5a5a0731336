open Relalg
open Authz

(* Mirror of the verifier's policy reads (see deps.mli). Each block
   below names the check it shadows; keeping the two in sync is what
   the soundness property in test/test_analysis.ml enforces. *)
let of_extended ?deliver_to ?original ~(extended : Extend.t) ~clusters () =
  Obs.with_span "analysis.deps" @@ fun () ->
  (* per subject, the attributes read at the Plain and at the Enc level;
     the facts are built once, at the end *)
  let acc = ref Subject.Map.empty in
  let read subject (plain, enc) =
    acc :=
      Subject.Map.update subject
        (function
          | None -> Some (plain, enc)
          | Some (p, e) -> Some (Attr.Set.union p plain, Attr.Set.union e enc))
        !acc
  in
  let add subject p = read subject (Fact.profile_reads p) in
  (* V2/V3 — Check_authz and the Check_minimal probes: executor [s]
     against operand and result profiles, read off the verified plan
     (MPQ001 proved them equal to the verifier's own derivation).
     Minimality probes check the same executors against profiles over
     the same attribute carrier (a dropped encryption only moves
     attributes between plain and encrypted form), so the attributes
     profile_reads lists for these profiles cover them. A missing profile
     fails closed: skipping it would shrink the dependency set. *)
  List.iter
    (fun n ->
      match Imap.find_opt (Plan.id n) extended.Extend.assignment with
      | None -> ()
      | Some subject ->
          let against m =
            match Hashtbl.find_opt extended.Extend.profiles (Plan.id m) with
            | Some p -> add subject p
            | None ->
                invalid_arg
                  (Printf.sprintf "Deps: %s (node %d) carries no stored profile"
                     (Plan.operator_name m) (Plan.id m))
          in
          List.iter against (Plan.children n);
          against n)
    (Plan.nodes extended.Extend.plan);
  (* V4 — Check_keys.distribution (MPQ030): every holder with duty over
     a cluster must keep plaintext authorization over what it handles. *)
  List.iter
    (fun (c : Plan_keys.cluster) ->
      Subject.Map.iter
        (fun subject handled -> read subject (handled, Attr.Set.empty))
        (Verify.Check_keys.duty_map extended c.Plan_keys.attrs))
    clusters;
  (* The optimizer's recipient gate: deliver_to must be authorized for
     every maximal source-side node of the original (crypto-stripped)
     plan. Replayed with the same recursion the optimizer uses. *)
  (match deliver_to with
  | None -> ()
  | Some user ->
      let rec inputs n =
        if Candidates.is_source_side n then add user (Profile.of_plan n)
        else List.iter inputs (Plan.children n)
      in
      inputs
        (match original with
        | Some q -> q
        | None -> Plan.strip_crypto extended.Extend.plan));
  Subject.Map.fold
    (fun subject (plain, enc) facts ->
      Fact.Set.union (Fact.of_levels subject ~plain ~enc) facts)
    !acc Fact.Set.empty

(* The population a policy delta must be computed over includes every
   subject a dependency set mentions: an [any] rule change can alter
   the view of a subject the caller's configured population does not
   list, and a cached verdict relying on that subject's facts would
   then migrate unsoundly. The serve layer folds this over every cached
   entry of the tenant whose policy is changing — other tenants'
   entries are out of scope by construction, which is what makes
   invalidation per-tenant. *)
let subjects_of facts =
  Fact.Set.fold
    (fun f acc -> Subject.Set.add f.Fact.subject acc)
    facts Subject.Set.empty
