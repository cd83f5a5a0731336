(* The planner's staged derivations against per-call reference copies.

   Planning derives the views, the conservative schemes and the actual
   schemes once per policy, query or extension, and answers lookups from
   immutable maps. The reference functions below derive each answer anew
   on every call, as the planner did before it staged them; kept
   test-local, like [Row_oracle], they pin the staged answers. *)

open Relalg
open Authz
module Scheme = Mpq_crypto.Scheme

let all_attrs = List.concat_map Schema.attr_list Gen.schemas

(* --- reference derivations -------------------------------------------- *)

let ref_relation_view policy rel s =
  let for_grantee g =
    List.find_opt
      (fun (r : Authorization.rule) ->
        r.Authorization.relation = rel
        &&
        match (r.Authorization.grantee, g) with
        | Authorization.Any, Authorization.Any -> true
        | Authorization.To a, Authorization.To b -> Subject.equal a b
        | _ -> false)
      (Authorization.rules policy)
  in
  match for_grantee (Authorization.To s) with
  | Some r -> (r.Authorization.plain, r.Authorization.enc)
  | None -> (
      match for_grantee Authorization.Any with
      | Some r -> (r.Authorization.plain, r.Authorization.enc)
      | None -> (Attr.Set.empty, Attr.Set.empty))

let ref_view policy s =
  List.fold_left
    (fun (p, e) sch ->
      let p', e' = ref_relation_view policy sch.Schema.name s in
      (Attr.Set.union p p', Attr.Set.union e e'))
    (Attr.Set.empty, Attr.Set.empty)
    (Authorization.schemas policy)

(* conservative demands: every capability the config runs over
   ciphertext, anywhere in the plan *)
let ref_cipher_demands config plan =
  List.concat_map
    (fun n ->
      let ap = Opreq.plaintext_attrs config n in
      List.filter
        (fun (a, _) -> not (Attr.Set.mem a ap))
        (Opreq.capability_demands n))
    (Plan.nodes plan)

let ref_scheme ~label demands eq a =
  let cls = Partition.find eq a in
  let caps =
    List.filter_map
      (fun (b, cap) -> if Attr.Set.mem b cls then Some cap else None)
      demands
    |> List.sort_uniq Stdlib.compare
  in
  match Scheme.strongest_supporting caps with
  | Some s -> s
  | None -> invalid_arg (label a)

let ref_conservative config plan a =
  ref_scheme
    ~label:(fun a ->
      Printf.sprintf
        "Opreq.schemes %s: unresolved capability conflict (run \
         resolve_conflicts first)"
        (Attr.name a))
    (ref_cipher_demands config plan)
    (Profile.of_plan_logical plan).Profile.eq a

(* actual demands: an operator demands a capability only on attributes
   its operands carry encrypted in the extension *)
let ref_actual ~original (ext : Extend.t) a =
  let ve n = (Hashtbl.find ext.Extend.profiles (Plan.id n)).Profile.ve in
  let demands =
    List.concat_map
      (fun n ->
        let operand_ve =
          List.fold_left
            (fun acc c -> Attr.Set.union acc (ve c))
            Attr.Set.empty (Plan.children n)
        in
        List.filter
          (fun (a, _) -> Attr.Set.mem a operand_ve)
          (Opreq.capability_demands n))
      (Plan.nodes ext.Extend.plan)
  in
  ref_scheme
    ~label:(fun a ->
      Printf.sprintf "Plan_keys.actual_schemes %s: capability conflict"
        (Attr.name a))
    demands (Profile.of_plan_logical original).Profile.eq a

(* --- comparisons ------------------------------------------------------- *)

let answer f a =
  match f a with
  | s -> Ok (Scheme.name s)
  | exception Invalid_argument m -> Error m

let same_answers ~what staged reference =
  List.for_all
    (fun a ->
      let got = answer staged a and want = answer reference a in
      got = want
      || QCheck.Test.fail_reportf "%s on %s: staged %s, reference %s" what
           (Attr.name a)
           (match got with Ok s -> s | Error m -> m)
           (match want with Ok s -> s | Error m -> m))
    all_attrs

(* Both the raw config (conflicts possible: the staged lookup must raise
   the reference's message) and the resolved one. *)
let test_conservative =
  QCheck.Test.make ~name:"conservative schemes = per-call reference"
    ~count:200 Gen.arbitrary_plan_policy (fun (plan, _) ->
      List.for_all
        (fun config ->
          same_answers ~what:"conservative"
            (Opreq.schemes config plan)
            (ref_conservative config plan))
        [ Opreq.default; Opreq.resolve_conflicts Opreq.default plan ])

(* One conflict for sure: [a] is both ordered and summed over
   ciphertext, which no single scheme supports. *)
let test_conflict_message () =
  let a = Attr.make "a" in
  let plan =
    Plan.group_by (Attr.Set.of_names [ "b" ])
      [ Aggregate.make (Aggregate.Sum a) ]
      (Plan.select
         (Predicate.conj [ Predicate.Cmp_const (a, Predicate.Lt, Value.Int 3) ])
         (Plan.base Gen.rel1))
  in
  let staged = answer (Opreq.schemes Opreq.default plan) a in
  Alcotest.(check bool) "conflict raised" true (Result.is_error staged);
  Alcotest.(check (result string string)) "same message"
    (answer (ref_conservative Opreq.default plan) a)
    staged

(* a random complete assignment drawn from the candidates, or None *)
let random_assignment ~policy ~config plan st =
  let lam = Candidates.compute ~policy ~subjects:Gen.subjects ~config plan in
  Plan.fold
    (fun acc n ->
      match acc with
      | None -> None
      | Some m when Candidates.is_source_side n -> Some m
      | Some m -> (
          match Subject.Set.elements (Candidates.candidates_of lam n) with
          | [] -> None
          | cands ->
              let s = List.nth cands (Random.State.int st (List.length cands)) in
              Some (Imap.add (Plan.id n) s m)))
    (Some Imap.empty) plan

let test_actual =
  QCheck.Test.make ~name:"actual schemes = per-call reference" ~count:200
    (QCheck.pair Gen.arbitrary_plan_policy QCheck.small_nat)
    (fun ((plan, policy), seed) ->
      let config = Opreq.resolve_conflicts Opreq.default plan in
      let st = Random.State.make [| seed |] in
      let staged = Plan_keys.actual_schemes ~original:plan in
      let extend = Extend.extender ~policy ~config ~deliver_to:Gen.user plan in
      (* several extensions through one first stage *)
      List.for_all
        (fun _ ->
          match random_assignment ~policy ~config plan st with
          | None -> true
          | Some assignment ->
              let ext = extend assignment in
              same_answers ~what:"actual" (staged ext)
                (ref_actual ~original:plan ext))
        [ 1; 2; 3 ])

(* The generated policies grant the user and providers X, Y, Z; add an
   [any] rule so unnamed subjects see something, then ask for every
   generated subject, a provider no rule names, and providers sharing a
   name with authority A1 and with the user. *)
let test_views =
  QCheck.Test.make ~name:"views = per-call reference" ~count:200
    Gen.arbitrary_plan_policy (fun (_, policy) ->
      let policy =
        Authorization.make ~schemas:Gen.schemas
          (Authorization.rules policy
          @ [ Authorization.rule ~rel:"R1" ~plain:[ "a" ] ~enc:[ "b"; "c" ]
                Authorization.Any ])
      in
      List.for_all
        (fun s ->
          let v = Authorization.view policy s in
          let p, e = ref_view policy s in
          (Attr.Set.equal v.Authorization.plain p
          && Attr.Set.equal v.Authorization.enc e)
          || QCheck.Test.fail_reportf "view of %s" (Subject.name s))
        (Gen.subjects
        @ List.map Subject.provider [ "W"; "A1"; "U" ]))

(* --- domain safety ----------------------------------------------------- *)

(* A planned result's [scheme_of] is cached with the plan and read by
   whichever domain executes it: four domains reading it at once must
   see what one domain sees. *)
let test_scheme_of_domains () =
  let r =
    Tpch.Scenarios.optimize ~sf:0.001 ~scenario:Tpch.Scenarios.UAPenc
      (Tpch.Tpch_queries.query 3)
  in
  let attrs = List.concat_map Schema.attr_list Tpch.Tpch_schema.all in
  let read () =
    List.map (answer r.Planner.Optimizer.scheme_of) attrs
  in
  let want = read () in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.for_all (fun _ -> read () = want) (List.init 200 Fun.id)))
  in
  List.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "domain %d" i) true (Domain.join d))
    domains

let () =
  Alcotest.run "staging"
    [ ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [ test_conservative; test_actual; test_views ] );
      ( "conflicts",
        [ Alcotest.test_case "conflicted class raises at lookup" `Quick
            test_conflict_message ] );
      ( "domains",
        [ Alcotest.test_case "scheme_of from 4 domains" `Quick
            test_scheme_of_domains ] ) ]
