open Relalg
open Authz
module Scheme = Mpq_crypto.Scheme

let find_cluster clusters a =
  List.find_opt
    (fun (c : Plan_keys.cluster) -> Attr.Set.mem a c.Plan_keys.attrs)
    clusters

(* Per-subject encryption/decryption duty over [attrs]: which of them
   the subject encrypts or decrypts somewhere in the plan, counting the
   at-rest encryption a base relation's authority provisioned. Keys are
   shared cluster-wide (compared attributes cannot use different keys),
   but each holder's plaintext-authorization obligation covers only the
   attributes it actually handles. *)
let duty_map (extended : Extend.t) attrs =
  let add subject s acc =
    let prev =
      Option.value ~default:Attr.Set.empty (Subject.Map.find_opt subject acc)
    in
    Subject.Map.add subject (Attr.Set.union prev s) acc
  in
  List.fold_left
    (fun acc n ->
      match Plan.node n with
      | Plan.Encrypt (s, _) | Plan.Decrypt (s, _) -> (
          let touched = Attr.Set.inter s attrs in
          if Attr.Set.is_empty touched then acc
          else
            match Imap.find_opt (Plan.id n) extended.Extend.assignment with
            | Some subject -> add subject touched acc
            | None -> acc)
      | Plan.Base sch ->
          let touched =
            Attr.Set.inter (Schema.stored_encrypted sch) attrs
          in
          if Attr.Set.is_empty touched then acc
          else add (Subject.authority sch.Schema.owner) touched acc
      | _ -> acc)
    Subject.Map.empty
    (Plan.nodes extended.Extend.plan)

let distribution ~policy ~(extended : Extend.t) ~clusters ~paths =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* Def. 6.1: holders see the plaintext they handle; keys go only where
     an encryption or decryption needs them. *)
  List.iter
    (fun (c : Plan_keys.cluster) ->
      let duties = duty_map extended c.Plan_keys.attrs in
      Subject.Set.iter
        (fun holder ->
          match Subject.Map.find_opt holder duties with
          | None ->
              emit
                (Diag.makef ~code:"MPQ032" ~severity:Diag.Warning
                   ~suggestion:"restrict the key to encryption/decryption \
                                executors"
                   "key k%s is over-distributed: %s performs no \
                    encryption/decryption over %s"
                   c.Plan_keys.id (Subject.name holder)
                   (Attr.Set.to_string c.Plan_keys.attrs))
          | Some handled ->
              let view = Authorization.view policy holder in
              if not (Attr.Set.subset handled view.Authorization.plain) then
                emit
                  (Diag.makef ~code:"MPQ030" ~severity:Diag.Error
                     "%s holds key k%s but lacks plaintext authorization \
                      over %s, which it encrypts or decrypts"
                     (Subject.name holder) c.Plan_keys.id
                     (Attr.Set.to_string
                        (Attr.Set.diff handled view.Authorization.plain))))
        c.Plan_keys.holders;
      Subject.Map.iter
        (fun duty handled ->
          if not (Subject.Set.mem duty c.Plan_keys.holders) then
            emit
              (Diag.makef ~code:"MPQ031" ~severity:Diag.Error
                 "%s encrypts or decrypts %s but does not hold key k%s"
                 (Subject.name duty)
                 (Attr.Set.to_string handled)
                 c.Plan_keys.id))
        duties)
    clusters;
  (* Every attribute that is ever in encrypted form on the wire must
     have a key cluster. *)
  List.iter
    (fun n ->
      let cryptoset =
        match Plan.node n with
        | Plan.Encrypt (s, _) | Plan.Decrypt (s, _) -> s
        | Plan.Base sch -> Schema.stored_encrypted sch
        | _ -> Attr.Set.empty
      in
      Attr.Set.iter
        (fun a ->
          if find_cluster clusters a = None then
            emit
              (Diag.makef ~node_id:(Plan.id n)
                 ?path:(Hashtbl.find_opt paths (Plan.id n))
                 ~code:"MPQ033" ~severity:Diag.Error
                 "%s handles %s encrypted, but no key cluster covers it"
                 (Plan.operator_name n) (Attr.name a)))
        cryptoset)
    (Plan.nodes extended.Extend.plan);
  List.rev !diags

(* The verifier's own scan of what runs over ciphertext where: an
   operation demands a capability over an attribute exactly when it
   reads that attribute encrypted in its operand. *)
type demand = { attr : Attr.t; cap : Scheme.capability option; what : string }
(* [cap = None]: the computation has no supporting scheme at all
   (LIKE patterns, udfs not declared cipher-capable). *)

let cap_of_op = function
  | Predicate.Eq | Predicate.Neq -> Scheme.Cap_equality
  | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge ->
      Scheme.Cap_order

let node_demands ~config n =
  match Plan.node n with
  | Plan.Select (pred, _) | Plan.Join (pred, _, _) ->
      List.concat_map
        (fun atom ->
          match atom with
          | Predicate.Cmp_const (a, op, _) ->
              [ { attr = a; cap = Some (cap_of_op op); what = "comparison" } ]
          | Predicate.Cmp_attr (a, op, b) ->
              let cap = Some (cap_of_op op) in
              [ { attr = a; cap; what = "comparison" };
                { attr = b; cap; what = "comparison" } ]
          | Predicate.In_list (a, _) ->
              [ { attr = a; cap = Some Scheme.Cap_equality; what = "IN list" } ]
          | Predicate.Like (a, _) ->
              [ { attr = a; cap = None; what = "LIKE pattern" } ])
        (Predicate.atoms pred)
  | Plan.Group_by (keys, aggs, _) ->
      Attr.Set.fold
        (fun a acc ->
          { attr = a; cap = Some Scheme.Cap_equality; what = "grouping" }
          :: acc)
        keys []
      @ List.concat_map
          (fun (agg : Aggregate.t) ->
            match agg.Aggregate.func with
            | Aggregate.Sum a | Aggregate.Avg a ->
                [ { attr = a; cap = Some Scheme.Cap_addition;
                    what = "additive aggregate" } ]
            | Aggregate.Min a | Aggregate.Max a ->
                [ { attr = a; cap = Some Scheme.Cap_order;
                    what = "min/max aggregate" } ]
            | Aggregate.Count _ | Aggregate.Count_star -> [])
          aggs
  | Plan.Order_by (keys, _) ->
      List.map
        (fun (a, _) ->
          { attr = a; cap = Some Scheme.Cap_order; what = "sorting" })
        keys
  | Plan.Udf (name, inputs, _, _)
    when not (List.mem name config.Opreq.enc_capable_udfs) ->
      Attr.Set.fold
        (fun a acc -> { attr = a; cap = None; what = "udf " ^ name } :: acc)
        inputs []
  | _ -> []

(* The verifier's own scan of which attributes of a node's output hold
   sums or averages computed below it. *)
let rec aggregated n =
  match Plan.node n with
  | Plan.Base _ -> Attr.Set.empty
  | Plan.Group_by (keys, aggs, c) ->
      List.fold_left
        (fun acc (agg : Aggregate.t) ->
          match agg.Aggregate.func with
          | Aggregate.Sum _ | Aggregate.Avg _ ->
              Attr.Set.add agg.Aggregate.output acc
          | _ -> Attr.Set.remove agg.Aggregate.output acc)
        (Attr.Set.inter keys (aggregated c))
        aggs
  | Plan.Project (attrs, c) -> Attr.Set.inter attrs (aggregated c)
  | Plan.Udf (_, _, output, c) -> Attr.Set.remove output (aggregated c)
  | Plan.Product (l, r) | Plan.Join (_, l, r) ->
      Attr.Set.union (aggregated l) (aggregated r)
  | Plan.Select (_, c) | Plan.Order_by (_, c) | Plan.Limit (_, c)
  | Plan.Encrypt (_, c) | Plan.Decrypt (_, c) ->
      aggregated c

let schemes ~config ~(extended : Extend.t) ~clusters ~derived ~paths =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  List.iter
    (fun n ->
      let operand_enc =
        List.fold_left
          (fun acc c ->
            match Hashtbl.find_opt derived (Plan.id c) with
            | Some p -> Attr.Set.union acc p.Profile.ve
            | None -> acc)
          Attr.Set.empty (Plan.children n)
      in
      List.iter
        (fun d ->
          if Attr.Set.mem d.attr operand_enc then
            let id = Plan.id n in
            let path = Hashtbl.find_opt paths id in
            match d.cap with
            | None ->
                emit
                  (Diag.makef ~node_id:id ?path ~code:"MPQ040"
                     ~severity:Diag.Error
                     ~suggestion:"decrypt the attribute first, or force it \
                                  plaintext in the operation requirements"
                     "%s over encrypted %s: no scheme supports it"
                     d.what (Attr.name d.attr))
            | Some cap -> (
                match find_cluster clusters d.attr with
                | None ->
                    ()
                    (* no cluster at all: already MPQ033 territory *)
                | Some c ->
                    if not (Scheme.supports c.Plan_keys.scheme cap) then
                      emit
                        (Diag.makef ~node_id:id ?path ~code:"MPQ040"
                           ~severity:Diag.Error
                           "%s over %s encrypted with %s, which does not \
                            support it"
                           d.what (Attr.name d.attr)
                           (Scheme.name c.Plan_keys.scheme))))
        (node_demands ~config n);
      (* a sum or average reading, encrypted, a sum or average *)
      match Plan.node n with
      | Plan.Group_by (_, aggs, c) ->
          List.iter
            (fun (agg : Aggregate.t) ->
              match agg.Aggregate.func with
              | (Aggregate.Sum a | Aggregate.Avg a)
                when Attr.Set.mem a operand_enc
                     && Attr.Set.mem a (aggregated c) ->
                  let id = Plan.id n in
                  emit
                    (Diag.makef ~node_id:id ?path:(Hashtbl.find_opt paths id)
                       ~code:"MPQ041" ~severity:Diag.Error
                       ~suggestion:"decrypt the aggregated attribute first"
                       "additive aggregate over encrypted %s, itself a sum \
                        or average"
                       (Attr.name a))
              | _ -> ())
            aggs
      | _ -> ())
    (Plan.nodes extended.Extend.plan);
  List.rev !diags
