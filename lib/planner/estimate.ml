open Relalg
module Scheme = Mpq_crypto.Scheme

(* Byte widths by attribute: the attributes in name order, each with its
   width at the same index. Plans keep a few dozen attributes per node,
   so a scan beats a balanced tree. *)
type widths = { names : Attr.t array; bytes : float array }

type stats = { card : float; widths : widths; row_bytes : float }
type base_stats = string -> stats option

let make ~card widths =
  { card; widths; row_bytes = Array.fold_left ( +. ) 0.0 widths.bytes }

let equal a b =
  a == b
  || Float.equal a.card b.card
     && Float.equal a.row_bytes b.row_bytes
     && Array.length a.widths.names = Array.length b.widths.names
     && Array.for_all2 Attr.equal a.widths.names b.widths.names
     && Array.for_all2 Float.equal a.widths.bytes b.widths.bytes

let row_bytes s = s.row_bytes
let table_bytes s = s.card *. s.row_bytes

(* The width of [a] in [w], 8 bytes when [w] lacks it. *)
let width_in w a =
  let rec find i =
    if i = Array.length w.names then 8.0
    else if Attr.equal w.names.(i) a then w.bytes.(i)
    else find (i + 1)
  in
  find 0

let width s a = width_in s.widths a

(* The entries of [w] whose attribute satisfies [keep]. *)
let filter_widths keep w =
  let n = Array.length w.names in
  let kept = ref 0 in
  Array.iter (fun a -> if keep a then incr kept) w.names;
  if !kept = n then w
  else begin
    let names = Array.make !kept w.names.(0) in
    let bytes = Array.make !kept 0.0 in
    let k = ref 0 in
    Array.iteri
      (fun i a ->
        if keep a then begin
          names.(!k) <- a;
          bytes.(!k) <- w.bytes.(i);
          incr k
        end)
      w.names;
    { names; bytes }
  end

(* Every attribute of [l] or [r], with [l]'s width where both have it. *)
let union_widths l r =
  let nl = Array.length l.names and nr = Array.length r.names in
  if nr = 0 then l
  else if nl = 0 then r
  else begin
    let names = Array.make (nl + nr) l.names.(0) in
    let bytes = Array.make (nl + nr) 0.0 in
    let k = ref 0 in
    let push a w =
      names.(!k) <- a;
      bytes.(!k) <- w;
      incr k
    in
    let rec go i j =
      if i < nl || j < nr then begin
        let c =
          if i = nl then 1
          else if j = nr then -1
          else Attr.compare l.names.(i) r.names.(j)
        in
        if c <= 0 then push l.names.(i) l.bytes.(i)
        else push r.names.(j) r.bytes.(j);
        go (if c <= 0 then i + 1 else i) (if c >= 0 then j + 1 else j)
      end
    in
    go 0 0;
    if !k = nl + nr then { names; bytes }
    else { names = Array.sub names 0 !k; bytes = Array.sub bytes 0 !k }
  end

(* [w] with each attribute of [attrs] set to [f] of its width in [w]. *)
let update_widths attrs f w =
  let names = Array.of_list (Attr.Set.elements attrs) in
  let bytes = Array.map (fun a -> f a (width_in w a)) names in
  union_widths { names; bytes } w

let of_widths ~card widths =
  let m =
    List.fold_left
      (fun m (n, w) -> Attr.Map.add (Attr.make n) w m)
      Attr.Map.empty widths
  in
  make ~card
    { names = Array.of_list (List.map fst (Attr.Map.bindings m));
      bytes = Array.of_list (List.map snd (Attr.Map.bindings m)) }

(* 0.1 for equality with a constant, 1/3 for ranges, 0.05 for LIKE,
   0.25 for IN. *)
let default_selectivity = function
  | Predicate.Cmp_const (_, (Predicate.Eq | Predicate.Neq), _) -> 0.1
  | Predicate.Cmp_const (_, _, _) -> 1.0 /. 3.0
  | Predicate.Cmp_attr (_, (Predicate.Eq | Predicate.Neq), _) -> 0.1
  | Predicate.Cmp_attr (_, _, _) -> 1.0 /. 3.0
  | Predicate.In_list (_, vs) ->
      Float.min 0.5 (0.05 *. float_of_int (List.length vs))
  | Predicate.Like _ -> 0.05

let predicate_selectivity pred =
  (* clauses multiply; atoms within a clause (disjunction) add, capped *)
  List.fold_left
    (fun acc clause ->
      let s =
        Float.min 1.0
          (List.fold_left (fun a atom -> a +. default_selectivity atom) 0.0
             clause)
      in
      acc *. s)
    1.0 pred

let node_stats ~scheme_of ~base n children =
  match (Plan.node n, children) with
  | Plan.Base sch, _ -> (
      match base sch.Schema.name with
      | Some s -> s
      | None ->
          (* default: small relation, 8-byte columns *)
          let names = Array.of_list (Attr.Set.elements (Schema.attrs sch)) in
          make ~card:1000.0
            { names; bytes = Array.make (Array.length names) 8.0 })
  | Plan.Project (attrs, _), [ cs ] ->
      make ~card:cs.card (filter_widths (fun a -> Attr.Set.mem a attrs) cs.widths)
  | Plan.Select (pred, _), [ cs ] ->
      { cs with card = Float.max 1.0 (cs.card *. predicate_selectivity pred) }
  | Plan.Product _, [ ls; rs ] ->
      make ~card:(ls.card *. rs.card) (union_widths ls.widths rs.widths)
  | Plan.Join (pred, _, _), [ ls; rs ] ->
      let pairs = List.length (Predicate.attr_pairs pred) in
      (* classic equi-join estimate: |L|*|R| / max(|L|,|R|) per pair *)
      let card =
        if pairs > 0 then
          Float.max 1.0 (ls.card *. rs.card /. Float.max ls.card rs.card)
        else ls.card *. rs.card *. predicate_selectivity pred
      in
      make ~card (union_widths ls.widths rs.widths)
  | Plan.Group_by (keys, aggs, _), [ cs ] ->
      (* distinct groups: a tenth of the input, floored *)
      let card = Float.max 1.0 (cs.card /. 10.0) in
      let kept =
        List.fold_left
          (fun acc (a : Aggregate.t) -> Attr.Set.add a.Aggregate.output acc)
          keys aggs
      in
      let names = Array.of_list (Attr.Set.elements kept) in
      make ~card { names; bytes = Array.map (width cs) names }
  | Plan.Udf (_, inputs, output, _), [ cs ] ->
      let dropped = Attr.Set.remove output inputs in
      make ~card:cs.card
        (filter_widths (fun a -> not (Attr.Set.mem a dropped)) cs.widths)
  | Plan.Order_by _, [ cs ] -> cs
  | Plan.Limit (n, _), [ cs ] ->
      { cs with card = Float.min cs.card (float_of_int n) }
  | Plan.Encrypt (attrs, _), [ cs ] ->
      make ~card:cs.card
        (update_widths attrs
           (fun a w -> w *. Scheme.expansion (scheme_of a))
           cs.widths)
  | Plan.Decrypt (attrs, _), [ cs ] ->
      make ~card:cs.card
        (update_widths attrs
           (fun a w -> w /. Scheme.expansion (scheme_of a))
           cs.widths)
  | _ -> invalid_arg "Estimate.node_stats: arity mismatch"

let annotate ?(scheme_of = fun _ -> Scheme.Det) ~base plan =
  let table = ref Authz.Imap.empty in
  let rec go n =
    let s = node_stats ~scheme_of ~base n (List.map go (Plan.children n)) in
    table := Authz.Imap.add (Plan.id n) s !table;
    s
  in
  ignore (go plan);
  !table
