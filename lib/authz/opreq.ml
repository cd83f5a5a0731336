open Relalg
module Scheme = Mpq_crypto.Scheme

type config = {
  equality_over_cipher : bool;
  order_over_cipher : bool;
  addition_over_cipher : bool;
  enc_capable_udfs : string list;
  forced_plaintext : Attr.Set.t Imap.t;
}

let default =
  { equality_over_cipher = true;
    order_over_cipher = true;
    addition_over_cipher = true;
    enc_capable_udfs = [];
    forced_plaintext = Imap.empty }

let strict =
  { default with
    equality_over_cipher = false;
    order_over_cipher = false;
    addition_over_cipher = false }

let force_plaintext config id attrs =
  let merged =
    match Imap.find_opt id config.forced_plaintext with
    | Some prev -> Attr.Set.union prev attrs
    | None -> attrs
  in
  { config with forced_plaintext = Imap.add id merged config.forced_plaintext }

let allows config = function
  | Scheme.Cap_equality -> config.equality_over_cipher
  | Scheme.Cap_order -> config.order_over_cipher
  | Scheme.Cap_addition -> config.addition_over_cipher

let cap_of_op = function
  | Predicate.Eq | Predicate.Neq -> Scheme.Cap_equality
  | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge ->
      Scheme.Cap_order

let atom_demands = function
  | Predicate.Cmp_const (a, op, _) -> [ (a, cap_of_op op) ]
  | Predicate.Cmp_attr (a, op, b) ->
      let cap = cap_of_op op in
      [ (a, cap); (b, cap) ]
  | Predicate.In_list (a, _) -> [ (a, Scheme.Cap_equality) ]
  | Predicate.Like _ -> [] (* needs plaintext, not a scheme capability *)

let agg_demands (agg : Aggregate.t) =
  match agg.func with
  | Aggregate.Sum a | Aggregate.Avg a -> [ (a, Scheme.Cap_addition) ]
  | Aggregate.Min a | Aggregate.Max a -> [ (a, Scheme.Cap_order) ]
  | Aggregate.Count _ | Aggregate.Count_star -> []

let capability_demands plan =
  match Plan.node plan with
  | Plan.Select (pred, _) | Plan.Join (pred, _, _) ->
      List.concat_map atom_demands (Predicate.atoms pred)
  | Plan.Group_by (keys, aggs, _) ->
      Attr.Set.fold (fun a acc -> (a, Scheme.Cap_equality) :: acc) keys []
      @ List.concat_map agg_demands aggs
  | Plan.Order_by (keys, _) ->
      List.map (fun (a, _) -> (a, Scheme.Cap_order)) keys
  | Plan.Base _ | Plan.Project _ | Plan.Product _ | Plan.Udf _
  | Plan.Limit _ | Plan.Encrypt _ | Plan.Decrypt _ ->
      []

let plaintext_attrs config plan =
  let forced =
    match Imap.find_opt (Plan.id plan) config.forced_plaintext with
    | Some s -> s
    | None -> Attr.Set.empty
  in
  let demanded =
    List.filter_map
      (fun (a, cap) -> if allows config cap then None else Some a)
      (capability_demands plan)
  in
  let like_attrs =
    match Plan.node plan with
    | Plan.Select (pred, _) | Plan.Join (pred, _, _) ->
        List.filter_map
          (function Predicate.Like (a, _) -> Some a | _ -> None)
          (Predicate.atoms pred)
    | _ -> []
  in
  let udf_attrs =
    match Plan.node plan with
    | Plan.Udf (name, inputs, _, _)
      when not (List.mem name config.enc_capable_udfs) ->
        Attr.Set.elements inputs
    | _ -> []
  in
  Attr.Set.union forced
    (Attr.Set.of_list (demanded @ like_attrs @ udf_attrs))

(* Capability sets per attribute over the whole plan, counting only
   demands the config would execute over ciphertext (attr not in the
   node's Ap). Returns per-attribute lists plus the demanding nodes. *)
let cipher_demands config plan =
  List.concat_map
    (fun n ->
      let ap = plaintext_attrs config n in
      List.filter_map
        (fun (a, cap) ->
          if Attr.Set.mem a ap then None else Some (a, cap, Plan.id n))
        (capability_demands n))
    (Plan.nodes plan)

(* Equivalence classes of the root profile cluster attributes that must
   share a key, hence a scheme. *)
let eq_class_of plan =
  let root_eq = (Profile.of_plan_logical plan).Profile.eq in
  fun a -> Partition.find root_eq a

let resolve_conflicts config plan =
  let post_index =
    List.mapi (fun i n -> (Plan.id n, i)) (Plan.nodes plan)
  in
  let class_of = eq_class_of plan in
  let rec loop config guard =
    if guard > 1000 then
      invalid_arg "Opreq.resolve_conflicts: did not converge";
    let demands = cipher_demands config plan in
    (* group demands by equivalence class representative *)
    let conflict =
      List.find_opt
        (fun (a, _, _) ->
          let cls = class_of a in
          let caps =
            List.filter_map
              (fun (b, cap, _) ->
                if Attr.Set.mem b cls then Some cap else None)
              demands
            |> List.sort_uniq Stdlib.compare
          in
          Scheme.strongest_supporting caps = None)
        demands
    in
    match conflict with
    | None -> config
    | Some (a, _, _) ->
        let cls = class_of a in
        (* all nodes demanding a capability on this class, latest first *)
        let demanding =
          List.filter (fun (b, _, _) -> Attr.Set.mem b cls) demands
          |> List.map (fun (b, _, id) -> (b, id, List.assoc id post_index))
          |> List.sort (fun (_, _, i) (_, _, j) -> compare j i)
        in
        (match demanding with
        | (b, id, _) :: _ ->
            loop (force_plaintext config id (Attr.Set.singleton b)) (guard + 1)
        | [] -> config)
  in
  loop config 0

let class_schemes ~conflict eq demands =
  let caps_by_attr =
    List.fold_left
      (fun m (a, cap) ->
        Attr.Map.update a
          (fun l -> Some (cap :: Option.value l ~default:[]))
          m)
      Attr.Map.empty demands
  in
  let resolve cls =
    Attr.Set.fold
      (fun a acc ->
        match Attr.Map.find_opt a caps_by_attr with
        | Some caps -> caps @ acc
        | None -> acc)
      cls []
    |> List.sort_uniq Stdlib.compare
    |> Scheme.strongest_supporting
  in
  (* every member of a class, and every other demanded attribute as its
     own singleton class; undemanded attributes fall to [unconstrained] *)
  let by_class =
    List.fold_left
      (fun m cls ->
        let s = resolve cls in
        Attr.Set.fold (fun a m -> Attr.Map.add a s m) cls m)
      Attr.Map.empty (Partition.sets eq)
  in
  let table =
    Attr.Map.fold
      (fun a _ m ->
        if Attr.Map.mem a m then m
        else Attr.Map.add a (resolve (Attr.Set.singleton a)) m)
      caps_by_attr by_class
  in
  let unconstrained = resolve Attr.Set.empty in
  fun a ->
    let s =
      match Attr.Map.find_opt a table with Some s -> s | None -> unconstrained
    in
    match s with Some s -> s | None -> invalid_arg (conflict a)

let schemes config plan =
  class_schemes
    ~conflict:(fun a ->
      Printf.sprintf
        "Opreq.schemes %s: unresolved capability conflict (run \
         resolve_conflicts first)"
        (Attr.name a))
    (Profile.of_plan_logical plan).Profile.eq
    (List.map (fun (a, cap, _) -> (a, cap)) (cipher_demands config plan))
