open Relalg
module Scheme = Mpq_crypto.Scheme

type cluster = {
  id : string;
  attrs : Attr.Set.t;
  scheme : Scheme.t;
  holders : Subject.Set.t;
}

let crypto_attrs plan =
  Plan.fold
    (fun acc n ->
      match Plan.node n with
      | Plan.Encrypt (attrs, _) | Plan.Decrypt (attrs, _) ->
          Attr.Set.union acc attrs
      | Plan.Base s ->
          (* outsourced relations are encrypted at rest: their keys are
             part of the query's key establishment too *)
          Attr.Set.union acc (Schema.stored_encrypted s)
      | _ -> acc)
    Attr.Set.empty plan

(* Capability demands evaluated on the extended plan: an operator demands
   a capability over an attribute only when the attribute is visible
   encrypted in its operand there. A subtree's demands depend on the
   subtree alone, so they are kept by its root's id and read back for
   every later extension holding it. *)
let actual_schemes ~original =
  let root_eq = (Profile.of_plan_logical original).Profile.eq in
  let memo = Imap.Tbl.create 256 in
  (* one resolution per distinct demand set: most moves leave it alone *)
  let resolved = Hashtbl.create 8 in
  let resolve d =
    match Hashtbl.find_opt resolved d with
    | Some scheme_of -> scheme_of
    | None ->
        (* cannot conflict after Opreq.resolve_conflicts: conservative
           demands are a superset of actual ones *)
        let scheme_of =
          Opreq.class_schemes
            ~conflict:(fun a ->
              Printf.sprintf "Plan_keys.actual_schemes %s: capability conflict"
                (Attr.name a))
            root_eq d
        in
        Hashtbl.add resolved d scheme_of;
        scheme_of
  in
  fun (ext : Extend.t) ->
    let profile_of n = Hashtbl.find ext.Extend.profiles (Plan.id n) in
    let rec demands n =
      match Imap.Tbl.find_opt memo (Plan.id n) with
      | Some d -> d
      | None ->
          let children = Plan.children n in
          let operand_ve =
            List.fold_left
              (fun acc c -> Attr.Set.union acc (profile_of c).Profile.ve)
              Attr.Set.empty children
          in
          let own =
            if Attr.Set.is_empty operand_ve then Opreq.no_demands
            else
              List.fold_left
                (fun d ((a, _) as demand) ->
                  if Attr.Set.mem a operand_ve then Opreq.add_demand d demand
                  else d)
                Opreq.no_demands
                (Opreq.capability_demands n)
          in
          let d =
            List.fold_left
              (fun d c -> Opreq.union_demands d (demands c))
              own children
          in
          Imap.Tbl.add memo (Plan.id n) d;
          d
    in
    resolve (demands ext.Extend.plan)

let compute ~config ~original (ext : Extend.t) =
  ignore config;
  let ak = crypto_attrs ext.Extend.plan in
  let root_eq =
    (Hashtbl.find ext.Extend.profiles (Plan.id ext.Extend.plan)).Profile.eq
  in
  (* Def. 6.1: cluster Ak by the root's equivalence sets; leftovers are
     singletons. *)
  let from_classes =
    List.filter_map
      (fun cls ->
        let inter = Attr.Set.inter ak cls in
        if Attr.Set.is_empty inter then None else Some inter)
      (Partition.sets root_eq)
  in
  let clustered =
    List.fold_left Attr.Set.union Attr.Set.empty from_classes
  in
  let singletons =
    Attr.Set.fold
      (fun a acc -> Attr.Set.singleton a :: acc)
      (Attr.Set.diff ak clustered) []
  in
  let holders_of attrs =
    Plan.fold
      (fun acc n ->
        match Plan.node n with
        | Plan.Encrypt (s, _) | Plan.Decrypt (s, _)
          when not (Attr.Set.is_empty (Attr.Set.inter s attrs)) -> (
            match Imap.find_opt (Plan.id n) ext.Extend.assignment with
            | Some subject -> Subject.Set.add subject acc
            | None -> acc)
        | Plan.Base sch
          when not
                 (Attr.Set.is_empty
                    (Attr.Set.inter (Schema.stored_encrypted sch) attrs)) ->
            (* the authority provisioned the at-rest encryption *)
            Subject.Set.add (Subject.authority sch.Schema.owner) acc
        | _ -> acc)
      Subject.Set.empty ext.Extend.plan
  in
  let scheme_of = actual_schemes ~original ext in
  List.map
    (fun attrs ->
      (* all attrs of a cluster share capability demands (they are
         compared together), so any representative works *)
      { id = Attr.Set.to_string attrs;
        attrs;
        scheme = scheme_of (Attr.Set.min_elt attrs);
        holders = holders_of attrs })
    (from_classes @ List.rev singletons)
  |> List.sort (fun a b -> String.compare a.id b.id)

let cluster_of_attr clusters a =
  List.find_opt (fun c -> Attr.Set.mem a c.attrs) clusters

let pp_cluster fmt c =
  Format.fprintf fmt "k%s (%a) -> {%s}" c.id Scheme.pp c.scheme
    (String.concat ","
       (List.map Subject.name (Subject.Set.elements c.holders)))
