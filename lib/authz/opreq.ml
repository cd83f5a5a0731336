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

(* Attributes of [plan]'s output that hold sums or averages computed
   in [plan]: a Paillier ciphertext of one already carries its own sum
   and count, and cannot be added into another. *)
let rec aggregated plan =
  match Plan.node plan with
  | Plan.Base _ -> Attr.Set.empty
  | Plan.Group_by (keys, aggs, c) ->
      List.fold_left
        (fun acc (agg : Aggregate.t) ->
          match agg.func with
          | Aggregate.Sum _ | Aggregate.Avg _ -> Attr.Set.add agg.output acc
          | _ -> Attr.Set.remove agg.output acc)
        (Attr.Set.inter keys (aggregated c))
        aggs
  | Plan.Project (attrs, c) -> Attr.Set.inter attrs (aggregated c)
  | Plan.Udf (_, _, output, c) -> Attr.Set.remove output (aggregated c)
  | Plan.Product (l, r) | Plan.Join (_, l, r) ->
      Attr.Set.union (aggregated l) (aggregated r)
  | Plan.Select (_, c) | Plan.Order_by (_, c) | Plan.Limit (_, c)
  | Plan.Encrypt (_, c) | Plan.Decrypt (_, c) ->
      aggregated c

(* Sum and average operands that are sums or averages themselves. *)
let reaggregated plan =
  match Plan.node plan with
  | Plan.Group_by (_, aggs, c) ->
      let operands =
        List.fold_left
          (fun acc (agg : Aggregate.t) ->
            match agg.func with
            | Aggregate.Sum a | Aggregate.Avg a -> Attr.Set.add a acc
            | _ -> acc)
          Attr.Set.empty aggs
      in
      if Attr.Set.is_empty operands then operands
      else Attr.Set.inter operands (aggregated c)
  | _ -> Attr.Set.empty

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
  Attr.Set.union
    (Attr.Set.union forced (reaggregated plan))
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

module Attr_table = Hashtbl.Make (Attr)

type demands = {
  equality : Attr.Set.t;
  order : Attr.Set.t;
  addition : Attr.Set.t;
}

let no_demands =
  { equality = Attr.Set.empty; order = Attr.Set.empty; addition = Attr.Set.empty }

let add_demand d (a, cap) =
  match cap with
  | Scheme.Cap_equality -> { d with equality = Attr.Set.add a d.equality }
  | Scheme.Cap_order -> { d with order = Attr.Set.add a d.order }
  | Scheme.Cap_addition -> { d with addition = Attr.Set.add a d.addition }

let union_demands a b =
  if a == no_demands then b
  else if b == no_demands then a
  else
    { equality = Attr.Set.union a.equality b.equality;
      order = Attr.Set.union a.order b.order;
      addition = Attr.Set.union a.addition b.addition }

let class_schemes ~conflict eq d =
  (* the capabilities demanded on some member of [cls] *)
  let resolve cls =
    let on set cap caps =
      if Attr.Set.disjoint cls set then caps else cap :: caps
    in
    Scheme.strongest_supporting
      (on d.equality Scheme.Cap_equality
         (on d.order Scheme.Cap_order (on d.addition Scheme.Cap_addition [])))
  in
  (* every member of a class, and every other demanded attribute as its
     own singleton class; undemanded attributes fall to [unconstrained] *)
  let table = Attr_table.create 16 in
  List.iter
    (fun cls ->
      let s = resolve cls in
      Attr.Set.iter (fun a -> Attr_table.replace table a s) cls)
    (Partition.sets eq);
  Attr.Set.iter
    (fun a ->
      if not (Attr_table.mem table a) then
        Attr_table.replace table a (resolve (Attr.Set.singleton a)))
    (Attr.Set.union d.equality (Attr.Set.union d.order d.addition));
  let unconstrained = resolve Attr.Set.empty in
  fun a ->
    let s =
      match Attr_table.find_opt table a with
      | Some s -> s
      | None -> unconstrained
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
    (List.fold_left
       (fun d (a, cap, _) -> add_demand d (a, cap))
       no_demands (cipher_demands config plan))
