open Relalg

type t = UA | UAPenc | UAPmix

let all = [ UA; UAPenc; UAPmix ]
let name = function UA -> "UA" | UAPenc -> "UAPenc" | UAPmix -> "UAPmix"

let user = Authz.Subject.user "U"

let providers =
  [ Authz.Subject.provider "P1"; Authz.Subject.provider "P2";
    Authz.Subject.provider "P3" ]

let authorities =
  [ Authz.Subject.authority Tpch_schema.authority1;
    Authz.Subject.authority Tpch_schema.authority2 ]

let subjects = (user :: authorities) @ providers

(* Split a relation's attributes in two halves (deterministic: schema
   column order). *)
let halves schema =
  let names = List.map Attr.name (Schema.attr_list schema) in
  let n = List.length names in
  let rec split i acc = function
    | [] -> (List.rev acc, [])
    | rest when i >= (n + 1) / 2 -> (List.rev acc, rest)
    | x :: rest -> split (i + 1) (x :: acc) rest
  in
  split 0 [] names

let build_policy scenario =
  let user_rules =
    List.map
      (fun s ->
        Authz.Authorization.rule ~rel:s.Schema.name
          ~plain:(List.map Attr.name (Schema.attr_list s))
          (To user))
      Tpch_schema.all
  in
  let provider_rules =
    match scenario with
    | UA -> []
    | UAPenc ->
        List.concat_map
          (fun s ->
            List.map
              (fun p ->
                Authz.Authorization.rule ~rel:s.Schema.name
                  ~enc:(List.map Attr.name (Schema.attr_list s))
                  (To p))
              providers)
          Tpch_schema.all
    | UAPmix ->
        List.concat_map
          (fun s ->
            let plain, enc = halves s in
            List.map
              (fun p ->
                Authz.Authorization.rule ~rel:s.Schema.name ~plain ~enc (To p))
              providers)
          Tpch_schema.all
  in
  Authz.Authorization.make ~schemas:Tpch_schema.all
    (user_rules @ provider_rules)

(* Built once, when the module is initialized: every view a policy holds
   is derived in [Authorization.make], and planning reads it many times. *)
let policies = List.map (fun scenario -> (scenario, build_policy scenario)) all
let policy scenario = List.assoc scenario policies

let pricing =
  Planner.Pricing.make
    ~provider_multipliers:[ ("P1", 1.0); ("P2", 0.8); ("P3", 1.2) ]
    ()

let optimize ?(sf = 1.0) ?(fold_leaf_filters = true) ~scenario plan =
  let plan, base =
    if fold_leaf_filters then
      let plan', factors = Planner.Leaf_filters.fold plan in
      (plan', Planner.Leaf_filters.scale_stats (Tpch_schema.base_stats ~sf) factors)
    else (plan, Tpch_schema.base_stats ~sf)
  in
  Planner.Optimizer.plan ~policy:(policy scenario) ~subjects ~pricing
    ~base ~deliver_to:user plan
