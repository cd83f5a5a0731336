open Relalg

type t = {
  plan : Plan.t;
  assignment : Subject.t Imap.t;
  profiles : (int, Profile.t) Hashtbl.t;
}

let implicit_attrs (p : Profile.t) = Attr.Set.union p.Profile.ip p.Profile.ie

(* Rebuild an operator node over freshly built children. *)
let rebuild node children =
  match (node, children) with
  | Plan.Base s, [] -> Plan.base s
  | Plan.Project (a, _), [ c ] -> Plan.project a c
  | Plan.Select (p, _), [ c ] -> Plan.select p c
  | Plan.Product _, [ l; r ] -> Plan.product l r
  | Plan.Join (p, _, _), [ l; r ] -> Plan.join p l r
  | Plan.Group_by (k, ag, _), [ c ] -> Plan.group_by k ag c
  | Plan.Udf (n, i, o, _), [ c ] -> Plan.udf n i o c
  | Plan.Order_by (k, _), [ c ] -> Plan.order_by k c
  | Plan.Limit (n, _), [ c ] -> Plan.limit n c
  | Plan.Encrypt (a, _), [ c ] -> Plan.encrypt a c
  | Plan.Decrypt (a, _), [ c ] -> Plan.decrypt a c
  | _ -> invalid_arg "Extend.rebuild: arity mismatch"

(* Attribute groups a node compares, which must be uniformly visible in
   its (possibly pre-encrypted) operands: predicate pairs and udf input
   sets. *)
let uniformity_groups n =
  match Plan.node n with
  | Plan.Select (pred, _) | Plan.Join (pred, _, _) ->
      List.map
        (fun (x, y) -> Attr.Set.of_list [ x; y ])
        (Predicate.attr_pairs pred)
  | Plan.Udf (_, inputs, _, _) -> [ inputs ]
  | _ -> []

(* What the extension reads of an original node that no assignment
   changes: the attributes its operation needs in plaintext, the groups
   it compares, and the implicit attributes of its logical profile. *)
type node_facts = {
  ap : Attr.Set.t;
  groups : Attr.Set.t list;
  implicit : Attr.Set.t;
}

let node_facts ~config plan =
  let logical = Profile.annotate_logical plan in
  Plan.fold
    (fun acc n ->
      Imap.add (Plan.id n)
        { ap = Opreq.plaintext_attrs config n;
          groups = uniformity_groups n;
          implicit = implicit_attrs (Hashtbl.find logical (Plan.id n)) }
        acc)
    Imap.empty plan

(* An original node with what the extension reads of it that no
   assignment changes, the authority owning it when it is source-side,
   the implicit attributes of its parent's logical profile (none at the
   root), and the attributes its subtree's nodes output: every profile
   of the subtree's extension holds only these. *)
type site = {
  node : Plan.t;
  facts : node_facts;
  owner : Subject.t option;
  parent_implicit : Attr.Set.t option;
  attrs : Attr.Set.t;
  children : site list;
}

let sites_of ~config plan =
  let facts = node_facts ~config plan in
  let rec go ~parent_implicit n =
    let facts_n = Imap.find (Plan.id n) facts in
    let children =
      List.map
        (go ~parent_implicit:(Some facts_n.implicit))
        (Plan.children n)
    in
    { node = n; facts = facts_n;
      owner =
        (if Candidates.is_source_side n then
           Some (Candidates.owner_of_source n)
         else None);
      parent_implicit;
      attrs =
        List.fold_left
          (fun acc c -> Attr.Set.union acc c.attrs)
          (Plan.schema n) children;
      children }
  in
  go ~parent_implicit:None plan

(* What every extension of one query shares. Node ids are unique, so a
   node's profile and executor are recorded once, when it is built, and
   read by every later extension holding it. *)
type builder = {
  view_of : Subject.t -> Authorization.view;
  deliver_to : Subject.t option;
  root : site;
  profiles : (int, Profile.t) Hashtbl.t;
  mutable executors : Subject.t Imap.t;
}

let builder ~policy ~config ?deliver_to plan =
  { view_of = Authorization.view policy;
    deliver_to;
    root = sites_of ~config plan;
    profiles = Hashtbl.create 256;
    executors = Imap.empty }

let root b = b.root
let site_node site = site.node
let site_children site = site.children

let record b node profile subject =
  Hashtbl.replace b.profiles (Plan.id node) profile;
  b.executors <- Imap.add (Plan.id node) subject b.executors

(* [parent_enc] is the encrypted view of the parent's executor and
   [above] the union of the encrypted views of every executor above the
   node, both cut to [site.attrs]; each child is extended under the
   inputs [inputs] gives it. *)
let inputs b site subject ~above =
  let enc = (b.view_of subject).Authorization.enc in
  let above = Attr.Set.union above enc in
  List.map
    (fun c -> (Attr.Set.inter enc c.attrs, Attr.Set.inter above c.attrs))
    site.children

let extend_node b site subject ~parent_enc ~above built =
  let n = site.node in
  let facts_n = site.facts in
  let ap = facts_n.ap in
  let view = b.view_of subject in
  (* executors from here up that must not see plaintext *)
  let protected_enc = Attr.Set.union above view.Authorization.enc in
  (* (i) decrypt operand attributes the operation needs in plaintext.
     Aggregate operands the assignee may read in plaintext are also
     decrypted: cheap symmetric decryption beats homomorphic
     re-encryption, aggregation operands leave no implicit trace, and
     the assignee is authorized (scheme economics the paper delegates
     to the optimizer, Sec. 6). *)
  let agg_plain =
    match Plan.node n with
    | Plan.Group_by (keys, aggs, _) ->
        let operands =
          List.fold_left
            (fun acc (agg : Aggregate.t) ->
              match Aggregate.operand agg with
              | Some a -> Attr.Set.add a acc
              | None -> acc)
            Attr.Set.empty aggs
        in
        Attr.Set.inter (Attr.Set.diff operands keys) view.Authorization.plain
    | _ -> Attr.Set.empty
  in
  let ap = Attr.Set.union ap agg_plain in
  let after_ap = List.map (fun (_, pc) -> Attr.Set.inter ap pc.Profile.ve) built in
  (* Restore uniform visibility for compared groups that a descendant's
     protective encryption split (one side of 'a op b' encrypted by
     Def. 5.4's terms, the other still plaintext). Two repairs exist:
     decrypting the encrypted side — minimal, but it reopens the very
     trace the encryption protected when some later executor lacks
     plaintext visibility — or encrypting the plaintext side under the
     shared cluster key. We decrypt when the node's executor holds
     plaintext rights and no executor from here up needs the attribute
     hidden; otherwise we encrypt the plaintext side (executed by the
     operand's producer, which sees it plaintext). Overlapping groups
     ('a < b', 'b < c') are resolved to a fixpoint with encryption
     dominant. *)
  let vp_all, ve_all =
    List.fold_left2
      (fun (vp, ve) (_, pc) d ->
        ( Attr.Set.union vp (Attr.Set.union pc.Profile.vp d),
          Attr.Set.union ve (Attr.Set.diff pc.Profile.ve d) ))
      (Attr.Set.empty, Attr.Set.empty)
      built after_ap
  in
  let fix_dec, fix_enc =
    let groups = facts_n.groups in
    let own_plain = view.Authorization.plain in
    let rec go to_dec to_enc =
      let ve_cur =
        Attr.Set.union (Attr.Set.diff ve_all (Attr.Set.diff to_dec to_enc)) to_enc
      in
      let vp_cur = Attr.Set.diff (Attr.Set.union vp_all to_dec) to_enc in
      let to_dec', to_enc' =
        List.fold_left
          (fun (td, te) group ->
            let enc = Attr.Set.inter group ve_cur in
            let plain = Attr.Set.inter group vp_cur in
            if Attr.Set.is_empty enc || Attr.Set.is_empty plain then (td, te)
            else if
              Attr.Set.is_empty (Attr.Set.inter enc protected_enc)
              && Attr.Set.subset enc own_plain
              && Attr.Set.is_empty (Attr.Set.inter enc to_enc)
            then (Attr.Set.union td enc, te)
            else (td, Attr.Set.union te plain))
          (to_dec, to_enc) groups
      in
      if Attr.Set.equal to_dec to_dec' && Attr.Set.equal to_enc to_enc' then
        (Attr.Set.diff to_dec to_enc, to_enc)
      else go to_dec' to_enc'
    in
    go Attr.Set.empty Attr.Set.empty
  in
  let operands =
    List.map2
      (fun (ec, pc) d_ap ->
        let d = Attr.Set.union d_ap (Attr.Set.inter fix_dec pc.Profile.ve) in
        let ec, pc =
          if Attr.Set.is_empty d then (ec, pc)
          else begin
            let nd = Plan.decrypt d ec in
            let pd = Profile.decrypt d pc in
            record b nd pd subject;
            (nd, pd)
          end
        in
        let e_fix = Attr.Set.inter fix_enc pc.Profile.vp in
        if Attr.Set.is_empty e_fix then (ec, pc)
        else begin
          let producer =
            match Imap.find_opt (Plan.id ec) b.executors with
            | Some s -> s
            | None -> subject
          in
          let ne = Plan.encrypt e_fix ec in
          let pe = Profile.encrypt e_fix pc in
          record b ne pe producer;
          (ne, pe)
        end)
      built after_ap
  in
  let n' = rebuild (Plan.node n) (List.map fst operands) in
  let p' = Profile.of_node (Plan.node n') (List.map snd operands) in
  record b n' p' subject;
  (* (ii) encrypt attributes the parent's assignee may not see plaintext,
     plus those turned implicit by the parent while some later assignee
     lacks plaintext visibility *)
  match site.parent_implicit with
  | None -> (n', p')
  | Some parent_implicit ->
      let a_term =
        Attr.Set.inter (Attr.Set.inter parent_implicit p'.Profile.vp) above
      in
      let enc_set =
        Attr.Set.union (Attr.Set.inter parent_enc p'.Profile.vp) a_term
      in
      if Attr.Set.is_empty enc_set then (n', p')
      else begin
        let ne = Plan.encrypt enc_set n' in
        let pe = Profile.encrypt enc_set p' in
        record b ne pe subject;
        (ne, pe)
      end

let extension b plan = { plan; assignment = b.executors; profiles = b.profiles }

let step b site subject ~parent_enc ~above children =
  let built =
    List.map
      (fun (c : t) -> (c.plan, Hashtbl.find c.profiles (Plan.id c.plan)))
      children
  in
  extension b (fst (extend_node b site subject ~parent_enc ~above built))

let finish b (root, root_profile) =
  let root =
    match b.deliver_to with
    | Some user ->
        let readable =
          Attr.Set.inter root_profile.Profile.ve
            (b.view_of user).Authorization.plain
        in
        if Attr.Set.is_empty readable then root
        else begin
          let nd = Plan.decrypt readable root in
          record b nd (Profile.decrypt readable root_profile) user;
          nd
        end
    | None -> root
  in
  extension b root

let deliver b (t : t) = finish b (t.plan, Hashtbl.find t.profiles (Plan.id t.plan))

let extender ~policy ~config ?deliver_to plan =
  let b = builder ~policy ~config ?deliver_to plan in
  fun assignment ->
    let rec build site ~parent_enc ~above =
      let subject =
        match (Imap.find_opt (Plan.id site.node) assignment, site.owner) with
        | Some s, _ | None, Some s -> s
        | None, None ->
            invalid_arg
              (Printf.sprintf "Extend.extend: node %d (%s) has no assignee"
                 (Plan.id site.node) (Plan.operator_name site.node))
      in
      let children =
        List.map2
          (fun c (parent_enc, above) -> build c ~parent_enc ~above)
          site.children
          (inputs b site subject ~above)
      in
      extend_node b site subject ~parent_enc ~above children
    in
    finish b (build b.root ~parent_enc:Attr.Set.empty ~above:Attr.Set.empty)

let own (t : t) =
  let profiles = Hashtbl.create 64 in
  let assignment =
    Plan.fold
      (fun acc n ->
        let id = Plan.id n in
        Hashtbl.replace profiles id (Hashtbl.find t.profiles id);
        Imap.add id (Imap.find id t.assignment) acc)
      Imap.empty t.plan
  in
  { t with assignment; profiles }

let extend ~policy ~config ~assignment ?deliver_to plan =
  own (extender ~policy ~config ?deliver_to plan assignment)

let verify ~policy t =
  let check_node acc node =
    match acc with
    | Error _ -> acc
    | Ok () -> (
        match Imap.find_opt (Plan.id node) t.assignment with
        | None ->
            Error
              (Printf.sprintf "node %d (%s) has no executor" (Plan.id node)
                 (Plan.operator_name node))
        | Some s ->
            let view = Authorization.view policy s in
            let operands =
              List.map
                (fun c -> Hashtbl.find t.profiles (Plan.id c))
                (Plan.children node)
            in
            let result = Hashtbl.find t.profiles (Plan.id node) in
            if Authorized.is_authorized_assignee view ~operands ~result then
              Ok ()
            else
              Error
                (Printf.sprintf "%s is not an authorized assignee of node %d (%s)"
                   (Subject.name s) (Plan.id node) (Plan.operator_name node)))
  in
  Plan.fold check_node (Ok ()) t.plan

let encrypted_attrs t =
  Plan.fold
    (fun acc n ->
      match Plan.node n with
      | Plan.Encrypt (attrs, _) -> Attr.Set.union acc attrs
      | _ -> acc)
    Attr.Set.empty t.plan

let to_ascii t =
  Plan_printer.to_ascii
    ~annot:(fun n ->
      let subject =
        match Imap.find_opt (Plan.id n) t.assignment with
        | Some s -> Subject.name s
        | None -> "?"
      in
      let profile =
        match Hashtbl.find_opt t.profiles (Plan.id n) with
        | Some p -> Profile.to_string p
        | None -> ""
      in
      Some (Printf.sprintf "@%s  %s" subject profile))
    t.plan
