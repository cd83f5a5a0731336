(* QCheck generators for random plans and policies, shared by property
   tests of the theorems (Thm. 3.1, 5.1, 5.2, 5.3). Plans are built
   bottom-up over a fixed two-authority catalog; generated policies give
   each subject random plaintext/encrypted slices of each relation. *)

open Relalg
open Authz

let rel1 =
  Schema.make ~name:"R1" ~owner:"A1"
    [ ("a", Schema.Tint); ("b", Schema.Tint); ("c", Schema.Tstring);
      ("d", Schema.Tint) ]

let rel2 =
  Schema.make ~name:"R2" ~owner:"A2"
    [ ("e", Schema.Tint); ("f", Schema.Tint); ("g", Schema.Tstring) ]

let rel3 =
  Schema.make ~name:"R3" ~owner:"A2" [ ("h", Schema.Tint); ("k", Schema.Tint) ]

let schemas = [ rel1; rel2; rel3 ]

let user = Subject.user "U"
let providers = List.map Subject.provider [ "X"; "Y"; "Z" ]

let subjects =
  (user :: List.map (fun s -> Subject.authority s.Schema.owner) [ rel1; rel2 ])
  @ providers

(* --- random plans ---------------------------------------------------- *)

(* pick a subset of a set, at least [min] elements *)
let pick_subset ?(min = 1) st set =
  let elements = Attr.Set.elements set in
  let chosen =
    List.filter (fun _ -> QCheck.Gen.bool st) elements
  in
  let chosen = if List.length chosen >= min then chosen else elements in
  Attr.Set.of_list chosen

let pick_one st set =
  let elements = Attr.Set.elements set in
  List.nth elements (QCheck.Gen.int_bound (List.length elements - 1) st)

(* columns c and g are strings in the catalog above; everything else is
   an int — generated atoms must be type-consistent or execution would
   compare apples with 67 *)
let is_string a = List.mem (Attr.name a) [ "c"; "g" ]

let string_pool = [| "ga"; "bu"; "zo"; "meu" |]

let gen_const_atom st schema =
  let a = pick_one st schema in
  let ops = [| Predicate.Eq; Predicate.Lt; Predicate.Ge |] in
  let op = ops.(QCheck.Gen.int_bound 2 st) in
  let v =
    if is_string a then
      Value.Str string_pool.(QCheck.Gen.int_bound 3 st)
    else Value.Int (QCheck.Gen.int_bound 100 st)
  in
  Predicate.Cmp_const (a, op, v)

let gen_pair_atom st schema =
  let a = pick_one st schema in
  let b = pick_one st schema in
  if Attr.equal a b || is_string a <> is_string b then None
  else Some (Predicate.Cmp_attr (a, Predicate.Eq, b))

(* A random plan: leaves (projected base relations), then 1-6 random
   unary/binary operators. *)
let gen_plan : Plan.t QCheck.Gen.t =
 fun st ->
  let leaf schema =
    let cols = pick_subset ~min:2 st (Schema.attrs schema) in
    Plan.project cols (Plan.base schema)
  in
  let rec grow plan fuel other_leaves =
    if fuel = 0 then plan
    else
      let schema = Plan.schema plan in
      let choice = QCheck.Gen.int_bound 6 st in
      let next, other_leaves =
        match choice with
        | 0 when Attr.Set.cardinal schema > 1 ->
            (Plan.project (pick_subset st schema) plan, other_leaves)
        | 1 -> (Plan.select (Predicate.conj [ gen_const_atom st schema ]) plan, other_leaves)
        | 2 -> (
            match gen_pair_atom st schema with
            | Some atom -> (Plan.select [ [ atom ] ] plan, other_leaves)
            | None -> (plan, other_leaves))
        | 3 -> (
            match other_leaves with
            | next :: rest ->
                let right = leaf next in
                let numeric s = Attr.Set.filter (fun a -> not (is_string a)) s in
                let la = numeric schema and ra = numeric (Plan.schema right) in
                if Attr.Set.is_empty la || Attr.Set.is_empty ra then
                  (plan, other_leaves)
                else
                  let a = pick_one st la and b = pick_one st ra in
                  ( Plan.join
                      (Predicate.conj
                         [ Predicate.Cmp_attr (a, Predicate.Eq, b) ])
                      plan right,
                    rest )
            | [] -> (plan, []))
        | 4 ->
            let keys = pick_subset st schema in
            let rest =
              Attr.Set.filter
                (fun a -> not (is_string a))
                (Attr.Set.diff schema keys)
            in
            (* vary the aggregate beyond Sum — the operation requirements
               differ (addition for Sum/Avg, order for Min/Max, none for
               Count), so each stresses a distinct candidate/extension
               path. Count_star is excluded: its output is a fresh
               attribute invisible to downstream profiles, which only
               track source attributes (derived outputs reuse an input's
               name, as udf outputs do). *)
            let aggs =
              if Attr.Set.is_empty rest then []
              else
                let operand = pick_one st rest in
                let fn =
                  match QCheck.Gen.int_bound 4 st with
                  | 0 -> Aggregate.Sum operand
                  | 1 -> Aggregate.Avg operand
                  | 2 -> Aggregate.Min operand
                  | 3 -> Aggregate.Max operand
                  | _ -> Aggregate.Count operand
                in
                [ Aggregate.make fn ]
            in
            (Plan.group_by keys aggs plan, other_leaves)
        | 5 ->
            let numeric = Attr.Set.filter (fun a -> not (is_string a)) schema in
            if Attr.Set.is_empty numeric then (plan, other_leaves)
            else
              let inputs = pick_subset st numeric in
              (Plan.udf "f" inputs (pick_one st inputs) plan, other_leaves)
        | _ ->
            let dir = if QCheck.Gen.bool st then Plan.Asc else Plan.Desc in
            (Plan.order_by [ (pick_one st schema, dir) ] plan, other_leaves)
      in
      grow next (fuel - 1) other_leaves
  in
  let plan = leaf rel1 in
  grow plan (1 + QCheck.Gen.int_bound 5 st) [ rel2; rel3 ]

(* --- random policies -------------------------------------------------- *)

let gen_policy : Authorization.t QCheck.Gen.t =
 fun st ->
  let rule_for schema subject =
    let attrs = Schema.attr_list schema in
    let classify _a =
      (* the querying user is fully plaintext-authorized (the paper's
         premise: it must read the response and the query inputs);
         providers get encrypted-biased random slices *)
      let r = QCheck.Gen.int_bound 99 st in
      match subject.Subject.role with
      | Subject.User -> `Plain
      | _ -> if r < 30 then `Plain else if r < 80 then `Enc else `None
    in
    let plain, enc =
      List.fold_left
        (fun (p, e) a ->
          match classify a with
          | `Plain -> (Attr.name a :: p, e)
          | `Enc -> (p, Attr.name a :: e)
          | `None -> (p, e))
        ([], []) attrs
    in
    if plain = [] && enc = [] then None
    else
      Some
        (Authorization.rule ~rel:schema.Schema.name ~plain ~enc
           (To subject))
  in
  let rules =
    List.concat_map
      (fun schema ->
        List.filter_map (rule_for schema) (user :: providers))
      schemas
  in
  Authorization.make ~schemas rules

let arbitrary_plan = QCheck.make ~print:Plan_printer.to_ascii gen_plan

let arbitrary_plan_policy =
  QCheck.make
    ~print:(fun (p, _) -> Plan_printer.to_ascii p)
    (QCheck.Gen.pair gen_plan gen_policy)

(* --- minimally extended plans ---------------------------------------- *)

(* An executable case for the engine: the original plan plus — when the
   random policy admits a full assignment — its minimal extension with
   [Encrypt]/[Decrypt] nodes and the query-plan key clusters needed to
   run it over real ciphertext. When some operator ends up with no
   candidate the case degrades to the unextended plan with no clusters,
   so consumers see a mix of plaintext-only and encrypting plans. *)
type extended_case = {
  original : Plan.t;
  executable : Plan.t;  (** [original], or its extension with crypto nodes *)
  clusters : Plan_keys.cluster list;
}

let gen_extended : extended_case QCheck.Gen.t =
  QCheck.Gen.(
    gen_plan >>= fun plan ->
    gen_policy >>= fun policy ->
    fun st ->
      let config = Opreq.resolve_conflicts Opreq.default plan in
      let lam = Candidates.compute ~policy ~subjects ~config plan in
      let assignment, complete =
        Plan.fold
          (fun (acc, ok) n ->
            if Candidates.is_source_side n then (acc, ok)
            else
              match Subject.Set.elements (Candidates.candidates_of lam n) with
              | [] -> (acc, false)
              | cands ->
                  let i = QCheck.Gen.int_bound (List.length cands - 1) st in
                  (Imap.add (Plan.id n) (List.nth cands i) acc, ok))
          (Imap.empty, true) plan
      in
      if not complete then
        { original = plan; executable = plan; clusters = [] }
      else
        let ext =
          Extend.extend ~policy ~config ~assignment ~deliver_to:user plan
        in
        let clusters = Plan_keys.compute ~config ~original:plan ext in
        { original = plan; executable = ext.Extend.plan; clusters })

let arbitrary_extended =
  QCheck.make
    ~print:(fun c -> Plan_printer.to_ascii c.executable)
    gen_extended

(* --- query streams ---------------------------------------------------- *)

(* The serving layer's workload shape: long streams of queries where
   many repeat verbatim (cache hits) under a policy that occasionally
   changes (invalidation). test_serve.ml replays these streams against
   cache-less oracles, with pinned counters. *)

type 'q stream_event =
  | Squery of 'q
  | Smutate  (** mutate the policy before serving the next query *)

(* [gen_stream ~repeat_rate ~mutation_rate ~pool n]: [n] events. Each
   event is a policy mutation with probability [mutation_rate];
   otherwise a query — a verbatim repeat of an earlier one with
   probability [repeat_rate] (once any was issued), else a fresh pick
   from [pool]. With a finite pool, fresh picks repeat naturally too,
   so the realized hit rate is at least [repeat_rate]. *)
let gen_stream ?(repeat_rate = 0.6) ?(mutation_rate = 0.0) ~pool n :
    'q stream_event list QCheck.Gen.t =
 fun st ->
  if Array.length pool = 0 then invalid_arg "gen_stream: empty query pool";
  let issued = ref [] in
  let pick_issued () =
    List.nth !issued (QCheck.Gen.int_bound (List.length !issued - 1) st)
  in
  let pick_fresh () =
    let q = pool.(QCheck.Gen.int_bound (Array.length pool - 1) st) in
    issued := q :: !issued;
    q
  in
  List.init n (fun _ ->
      if QCheck.Gen.float_bound_inclusive 1.0 st < mutation_rate then Smutate
      else if
        !issued <> [] && QCheck.Gen.float_bound_inclusive 1.0 st < repeat_rate
      then Squery (pick_issued ())
      else Squery (pick_fresh ()))

(* --- overlapping batches ---------------------------------------------- *)

(* [gen_batch ~overlap n]: a batch of [n] queries designed to exercise
   multi-query work sharing. A few random "cores" are generated first;
   each batch member is, with probability [overlap], one shared core
   under a fresh single-operator top (project/select/order-by/limit),
   otherwise an independent random plan. A single-operator top leaves
   the core at preorder position 1 in every wrapped query, so
   position-bound sub-plan sharing (ciphertext-producing cores) can
   actually fire across batch members — crypto-free cores share
   position-independently anyway. Cores are reused as physically
   shared [Plan.t] values, which additionally exercises DAG-safe
   position labelling on the consumer side. *)
let gen_batch ?(overlap = 0.7) n : Plan.t list QCheck.Gen.t =
 fun st ->
  if n < 1 then invalid_arg "gen_batch: n < 1";
  let cores =
    Array.init (1 + QCheck.Gen.int_bound 1 st) (fun _ -> gen_plan st)
  in
  let wrap core =
    let schema = Plan.schema core in
    match QCheck.Gen.int_bound 3 st with
    | 0 when Attr.Set.cardinal schema > 1 ->
        Plan.project (pick_subset st schema) core
    | 1 -> Plan.select (Predicate.conj [ gen_const_atom st schema ]) core
    | 2 ->
        let dir = if QCheck.Gen.bool st then Plan.Asc else Plan.Desc in
        Plan.order_by [ (pick_one st schema, dir) ] core
    | _ -> Plan.limit (1 + QCheck.Gen.int_bound 20 st) core
  in
  List.init n (fun _ ->
      if QCheck.Gen.float_bound_inclusive 1.0 st < overlap then
        wrap cores.(QCheck.Gen.int_bound (Array.length cores - 1) st)
      else gen_plan st)

(* Revoke one permission: drop a random attribute from a random
   non-user rule's plain or enc set. Works on any policy (the random
   ones above, the TPC-H scenarios). User rules are spared — the
   querying user must stay authorized for inputs and results, so
   revoking there would only produce blanket rejections. Rules granting
   a relation's storing subject (its owner authority, or the provider
   hosting the outsourced copy) its own relation are spared too: that
   subject physically holds the data and is the only possible executor
   of the base scan, so the "revocation" would not model any transfer
   of trust — it would only make every query over the relation
   unverifiable forever. Returns the policy unchanged when no rule is
   mutable. *)
let revoke_once policy st =
  let schemas = Authorization.schemas policy in
  let stores_relation s rel =
    match
      List.find_opt (fun sch -> String.equal sch.Schema.name rel) schemas
    with
    | None -> false
    | Some sch -> (
        Subject.equal s (Subject.authority sch.Schema.owner)
        ||
        match sch.Schema.storage with
        | Schema.At_authority -> false
        | Schema.Outsourced { host; _ } ->
            Subject.equal s (Subject.provider host))
  in
  let mutable_rule (r : Authorization.rule) =
    (match r.Authorization.grantee with
    | Authorization.To s ->
        s.Subject.role <> Subject.User
        && not (stores_relation s r.Authorization.relation)
    | Authorization.Any -> true)
    && not
         (Attr.Set.is_empty r.Authorization.plain
         && Attr.Set.is_empty r.Authorization.enc)
  in
  let rules = Authorization.rules policy in
  match List.filter mutable_rule rules with
  | [] -> policy
  | candidates ->
      let victim =
        List.nth candidates (QCheck.Gen.int_bound (List.length candidates - 1) st)
      in
      let from_plain =
        (not (Attr.Set.is_empty victim.Authorization.plain))
        && (Attr.Set.is_empty victim.Authorization.enc || QCheck.Gen.bool st)
      in
      let set =
        if from_plain then victim.Authorization.plain
        else victim.Authorization.enc
      in
      let attrs = Attr.Set.elements set in
      let dropped =
        List.nth attrs (QCheck.Gen.int_bound (List.length attrs - 1) st)
      in
      let shrunk = Attr.Set.remove dropped set in
      let victim' =
        if from_plain then { victim with Authorization.plain = shrunk }
        else { victim with Authorization.enc = shrunk }
      in
      let rules' =
        List.map (fun r -> if r == victim then victim' else r) rules
      in
      Authorization.make ~schemas:(Authorization.schemas policy) rules'

(* Grant one absent attribute to one non-user subject. Pure fact
   addition only: attributes are added to a rule's plain or enc set,
   never moved between them (enc→plain upgrades can break equivalence-
   class uniformity, so they are not monotone). Subjects whose whole
   visibility is an implicit rule (a relation's owner or outsourcing
   host without an explicit rule) are skipped — writing them an
   explicit rule would silently replace the implicit full view with a
   one-attribute one, a revocation in grant's clothing. *)
let grant_once policy st =
  let schemas = Authorization.schemas policy in
  let rules = Authorization.rules policy in
  let grantees =
    List.filter
      (fun s -> s.Subject.role <> Subject.User)
      (Subject.Set.elements (Authorization.explicit_subjects policy))
  in
  let has_rule s (sch : Schema.t) =
    List.exists
      (fun (r : Authorization.rule) ->
        String.equal r.Authorization.relation sch.Schema.name
        && match r.Authorization.grantee with
           | Authorization.To x -> Subject.equal x s
           | Authorization.Any -> false)
      rules
  in
  let implicit_only s (sch : Schema.t) =
    (not (has_rule s sch))
    && (Subject.equal s (Subject.authority sch.Schema.owner)
       ||
       match sch.Schema.storage with
       | Schema.At_authority -> false
       | Schema.Outsourced { host; _ } ->
           Subject.equal s (Subject.provider host))
  in
  let attempt () =
    match grantees with
    | [] -> None
    | _ -> (
        let s =
          List.nth grantees (QCheck.Gen.int_bound (List.length grantees - 1) st)
        in
        let sch =
          List.nth schemas (QCheck.Gen.int_bound (List.length schemas - 1) st)
        in
        if implicit_only s sch then None
        else
          let held =
            List.fold_left
              (fun acc (r : Authorization.rule) ->
                if
                  String.equal r.Authorization.relation sch.Schema.name
                  && (match r.Authorization.grantee with
                     | Authorization.To x -> Subject.equal x s
                     | Authorization.Any -> false)
                then
                  Attr.Set.union acc
                    (Attr.Set.union r.Authorization.plain r.Authorization.enc)
                else acc)
              Attr.Set.empty rules
          in
          let absent = Attr.Set.elements (Attr.Set.diff (Schema.attrs sch) held) in
          match absent with
          | [] -> None
          | _ ->
              let attr =
                List.nth absent
                  (QCheck.Gen.int_bound (List.length absent - 1) st)
              in
              let to_plain = QCheck.Gen.bool st in
              let rules' =
                if has_rule s sch then
                  List.map
                    (fun (r : Authorization.rule) ->
                      if
                        String.equal r.Authorization.relation sch.Schema.name
                        && (match r.Authorization.grantee with
                           | Authorization.To x -> Subject.equal x s
                           | Authorization.Any -> false)
                      then
                        if to_plain then
                          { r with
                            Authorization.plain =
                              Attr.Set.add attr r.Authorization.plain }
                        else
                          { r with
                            Authorization.enc =
                              Attr.Set.add attr r.Authorization.enc }
                      else r)
                    rules
                else
                  { Authorization.relation = sch.Schema.name;
                    grantee = Authorization.To s;
                    plain =
                      (if to_plain then Attr.Set.singleton attr
                       else Attr.Set.empty);
                    enc =
                      (if to_plain then Attr.Set.empty
                       else Attr.Set.singleton attr) }
                  :: rules
              in
              Some (Authorization.make ~schemas rules'))
  in
  let rec try_n n = if n = 0 then policy
    else match attempt () with Some p -> p | None -> try_n (n - 1)
  in
  try_n 5

let mutate_policy ?(mode = `Revoke) policy : Authorization.t QCheck.Gen.t =
 fun st ->
  match mode with
  | `Revoke -> revoke_once policy st
  | `Grant -> grant_once policy st
  | `Mixed ->
      if QCheck.Gen.bool st then grant_once policy st
      else revoke_once policy st
