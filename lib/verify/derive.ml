open Relalg
open Authz

exception Not_derivable of int * string

let union = Attr.Set.union
let inter = Attr.Set.inter
let diff = Attr.Set.diff

type vis = Vplain | Venc | Vnone

let vis_of (p : Profile.t) a =
  if Attr.Set.mem a p.Profile.vp then Vplain
  else if Attr.Set.mem a p.Profile.ve then Venc
  else Vnone

(* One Fig. 2 atom: constant comparisons turn their attribute implicit in
   the form it is visible; attribute comparisons require uniform
   visibility and extend the equivalence closure. *)
let apply_atom ~(bad : string -> unit) (p : Profile.t) atom =
  let badf fmt = Format.kasprintf bad fmt in
  match atom with
  | Predicate.Cmp_const (a, _, _)
  | Predicate.In_list (a, _)
  | Predicate.Like (a, _) -> (
      match vis_of p a with
      | Vplain -> { p with Profile.ip = Attr.Set.add a p.Profile.ip }
      | Venc -> { p with Profile.ie = Attr.Set.add a p.Profile.ie }
      | Vnone ->
          badf "condition over %s, which is not visible in the operand"
            (Attr.name a);
          p)
  | Predicate.Cmp_attr (a, _, b) ->
      (match (vis_of p a, vis_of p b) with
      | Vplain, Vplain | Venc, Venc -> ()
      | Vnone, _ | _, Vnone ->
          badf "comparison %s/%s over a non-visible attribute" (Attr.name a)
            (Attr.name b)
      | _ ->
          badf "%s and %s are compared with non-uniform visibility"
            (Attr.name a) (Attr.name b));
      { p with Profile.eq = Partition.union_pair p.Profile.eq a b }

let product_of (l : Profile.t) (r : Profile.t) =
  { Profile.vp = union l.Profile.vp r.Profile.vp;
    ve = union l.Profile.ve r.Profile.ve;
    ip = union l.Profile.ip r.Profile.ip;
    ie = union l.Profile.ie r.Profile.ie;
    eq = Partition.merge l.Profile.eq r.Profile.eq }

(* Violating a precondition calls [bad]; either way only attributes in
   the expected state actually move, so continuing after a report stays
   well-defined. [drop] simulates removing one attribute from one Encrypt
   node (minimality probe): the attribute stays plaintext there and later
   decryptions of it become no-ops. *)
let run ~(bad : int -> string -> unit) ?drop plan =
  let tbl = Hashtbl.create 64 in
  let dropped id =
    match drop with
    | Some (i, a) when i = id -> Attr.Set.singleton a
    | _ -> Attr.Set.empty
  in
  let check_visible ~op id p attrs =
    Attr.Set.iter
      (fun a ->
        if vis_of p a = Vnone then
          bad id
            (Printf.sprintf "%s reads %s, which is not visible in the operand"
               op (Attr.name a)))
      attrs
  in
  let rec go n =
    let children = List.map go (Plan.children n) in
    let id = Plan.id n in
    let badf fmt = Format.kasprintf (bad id) fmt in
    let p : Profile.t =
      match (Plan.node n, children) with
      | Plan.Base s, [] ->
          let at_rest = Schema.stored_encrypted s in
          { Profile.vp = diff (Schema.attrs s) at_rest;
            ve = at_rest;
            ip = Attr.Set.empty;
            ie = Attr.Set.empty;
            eq = Partition.empty }
      | Plan.Project (attrs, _), [ c ] ->
          { c with
            Profile.vp = inter c.Profile.vp attrs;
            ve = inter c.Profile.ve attrs }
      | Plan.Select (pred, _), [ c ] ->
          List.fold_left (apply_atom ~bad:(bad id)) c (Predicate.atoms pred)
      | Plan.Product _, [ l; r ] -> product_of l r
      | Plan.Join (pred, _, _), [ l; r ] ->
          List.fold_left
            (apply_atom ~bad:(bad id))
            (product_of l r)
            (Predicate.atoms pred)
      | Plan.Group_by (keys, aggs, _), [ c ] ->
          let operands =
            List.fold_left
              (fun acc (agg : Aggregate.t) ->
                match Aggregate.operand agg with
                | Some a -> Attr.Set.add a acc
                | None -> acc)
              Attr.Set.empty aggs
          in
          let kept = union keys operands in
          check_visible ~op:"group-by" id c kept;
          { c with
            Profile.vp = inter c.Profile.vp kept;
            ve = inter c.Profile.ve kept;
            ip = union c.Profile.ip (inter c.Profile.vp keys);
            ie = union c.Profile.ie (inter c.Profile.ve keys) }
      | Plan.Udf (_, inputs, output, _), [ c ] ->
          check_visible ~op:"udf" id c inputs;
          if
            not
              (Attr.Set.subset inputs c.Profile.vp
              || Attr.Set.subset inputs c.Profile.ve)
          then
            badf "udf inputs %s are not uniformly visible"
              (Attr.Set.to_string inputs);
          let gone = Attr.Set.remove output inputs in
          { c with
            Profile.vp = diff c.Profile.vp gone;
            ve = diff c.Profile.ve gone;
            eq = Partition.union_set c.Profile.eq inputs }
      | Plan.Order_by (keys, _), [ c ] ->
          let ks = Attr.Set.of_list (List.map fst keys) in
          check_visible ~op:"order-by" id c ks;
          { c with
            Profile.ip = union c.Profile.ip (inter c.Profile.vp ks);
            ie = union c.Profile.ie (inter c.Profile.ve ks) }
      | Plan.Limit _, [ c ] -> c
      | Plan.Encrypt (attrs, _), [ c ] ->
          let attrs = diff attrs (dropped id) in
          if not (Attr.Set.subset attrs c.Profile.vp) then
            badf "encrypt of %s, which is not visible plaintext"
              (Attr.Set.to_string (diff attrs c.Profile.vp));
          let moved = inter attrs (union c.Profile.vp c.Profile.ve) in
          { c with
            Profile.vp = diff c.Profile.vp attrs;
            ve = union c.Profile.ve moved }
      | Plan.Decrypt (attrs, _), [ c ] ->
          let must =
            match drop with
            | Some (_, a) -> Attr.Set.remove a attrs
            | None -> attrs
          in
          if not (Attr.Set.subset must c.Profile.ve) then
            badf "decrypt of %s, which is not visible encrypted"
              (Attr.Set.to_string (diff must c.Profile.ve));
          let moved = inter attrs c.Profile.ve in
          { c with
            Profile.vp = union c.Profile.vp moved;
            ve = diff c.Profile.ve moved }
      | _ ->
          badf "operator/operand arity mismatch";
          { Profile.vp = Attr.Set.empty;
            ve = Attr.Set.empty;
            ip = Attr.Set.empty;
            ie = Attr.Set.empty;
            eq = Partition.empty }
    in
    Hashtbl.replace tbl id p;
    p
  in
  ignore (go plan);
  tbl

let strict ?drop plan =
  let bad id m = raise (Not_derivable (id, m)) in
  run ~bad ?drop plan

let lenient ?paths plan =
  let diags = ref [] in
  let bad id m =
    let path = Option.bind paths (fun t -> Hashtbl.find_opt t id) in
    diags :=
      Diag.make ~node_id:id ?path ~code:"MPQ002" ~severity:Diag.Error m
      :: !diags
  in
  let tbl = run ~bad plan in
  (tbl, List.rev !diags)
