open Relalg
open Sql_ast

exception Plan_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Plan_error s)) fmt

let value_of = function
  | Cint i -> Value.Int i
  | Cfloat f -> Value.Float f
  | Cstring s -> Value.Str s
  | Cdate d -> Value.date_of_string d
  | Cbool b -> Value.Bool b

let op_of = function
  | Eq -> Predicate.Eq
  | Neq -> Predicate.Neq
  | Lt -> Predicate.Lt
  | Le -> Predicate.Le
  | Gt -> Predicate.Gt
  | Ge -> Predicate.Ge

(* A condition becomes one or more CNF clauses; [attr] resolves a
   column name. *)
let rec clauses_of_condition attr cond : Predicate.t =
  match cond with
  | Cmp_const (a, op, c) ->
      [ [ Predicate.Cmp_const (attr a, op_of op, value_of c) ] ]
  | Cmp_attr (a, op, b) ->
      [ [ Predicate.Cmp_attr (attr a, op_of op, attr b) ] ]
  | In (a, cs) -> [ [ Predicate.In_list (attr a, List.map value_of cs) ] ]
  | Like (a, p) -> [ [ Predicate.Like (attr a, p) ] ]
  | Between (a, lo, hi) ->
      [ [ Predicate.Cmp_const (attr a, Predicate.Ge, value_of lo) ];
        [ Predicate.Cmp_const (attr a, Predicate.Le, value_of hi) ] ]
  | Or cs ->
      let atoms =
        List.concat_map
          (fun c ->
            match clauses_of_condition attr c with
            | [ clause ] -> clause
            | _ -> fail "BETWEEN is not supported inside OR")
          cs
      in
      [ atoms ]

let rec condition_attrs = function
  | Cmp_const (a, _, _) | In (a, _) | Like (a, _) | Between (a, _, _) -> [ a ]
  | Cmp_attr (a, _, b) -> [ a; b ]
  | Or cs -> List.concat_map condition_attrs cs

let agg_of attr item =
  match item with
  | Agg ("count", None) -> Aggregate.make Aggregate.Count_star
  | Agg (f, Some a) ->
      let a = attr a in
      let func =
        match f with
        | "count" -> Aggregate.Count a
        | "sum" -> Aggregate.Sum a
        | "avg" -> Aggregate.Avg a
        | "min" -> Aggregate.Min a
        | "max" -> Aggregate.Max a
        | _ -> fail "unknown aggregate %s" f
      in
      Aggregate.make func
  | Agg (f, None) -> fail "%s(*) is not supported" f
  | Col _ -> fail "not an aggregate"

(* SQL identifiers are case-insensitive; canonicalize names against the
   catalog before planning. *)
let canonicalize ~catalog (q : Sql_ast.t) =
  let lc = String.lowercase_ascii in
  let rel name =
    match
      List.find_opt (fun s -> lc s.Schema.name = lc name) catalog
    with
    | Some s -> s.Schema.name
    | None -> fail "unknown relation %s" name
  in
  let from = List.map rel q.from in
  let schemas =
    List.map (fun r -> List.find (fun s -> s.Schema.name = r) catalog) from
  in
  let attr name =
    let matches =
      List.concat_map
        (fun s ->
          List.filter
            (fun a -> lc (Attr.name a) = lc name)
            (Schema.attr_list s))
        schemas
    in
    match List.sort_uniq Attr.compare matches with
    | [ a ] -> Attr.name a
    | [] -> fail "unknown column %s" name
    | _ -> fail "ambiguous column %s" name
  in
  let rec cond = function
    | Cmp_const (a, op, c) -> Cmp_const (attr a, op, c)
    | Cmp_attr (a, op, b) -> Cmp_attr (attr a, op, attr b)
    | In (a, cs) -> In (attr a, cs)
    | Like (a, p) -> Like (attr a, p)
    | Between (a, lo, hi) -> Between (attr a, lo, hi)
    | Or cs -> Or (List.map cond cs)
  in
  let item = function
    | Col c -> Col (attr c)
    | Agg (f, Some a) -> Agg (f, Some (attr a))
    | Agg (f, None) -> Agg (f, None)
  in
  { distinct = q.distinct;
    select = List.map item q.select;
    from;
    join_on = List.map cond q.join_on;
    where = List.map cond q.where;
    group_by = List.map attr q.group_by;
    having = List.map cond q.having;
    order_by = List.map (fun (c, d) -> (attr c, d)) q.order_by;
    limit = q.limit }

let to_plan ~catalog (q : Sql_ast.t) =
  if q.select = [] then fail "empty select list";
  let q = canonicalize ~catalog q in
  let schema_of rel =
    match List.find_opt (fun s -> s.Schema.name = rel) catalog with
    | Some s -> s
    | None -> fail "unknown relation %s" rel
  in
  let schemas = List.map schema_of q.from in
  (* Names resolve against the FROM relations' columns by string: a
     name no schema declares is refused before it could be interned. *)
  let owners a =
    List.filter_map
      (fun s ->
        List.find_opt (fun b -> String.equal (Attr.name b) a) (Schema.attr_list s)
        |> Option.map (fun b -> (s, b)))
      schemas
  in
  let resolve a =
    match owners a with
    | [ found ] -> found
    | [] -> fail "unknown column %s" a
    | _ -> fail "ambiguous column %s" a
  in
  let owner_of a = (fst (resolve a)).Schema.name in
  let attr a = snd (resolve a) in
  let clauses_of_condition = clauses_of_condition attr in
  (* columns each relation must expose *)
  let needed = Hashtbl.create 8 in
  let need a =
    let rel = owner_of a in
    let prev =
      Option.value ~default:Attr.Set.empty (Hashtbl.find_opt needed rel)
    in
    Hashtbl.replace needed rel (Attr.Set.add (attr a) prev)
  in
  List.iter
    (function
      | Col a -> need a
      | Agg (_, Some a) -> need a
      | Agg (_, None) -> ())
    q.select;
  List.iter need q.group_by;
  List.iter (fun c -> List.iter need (condition_attrs c)) (q.join_on @ q.where);
  (* leaves with pushed-down projections and per-relation selections *)
  let is_single_rel rel cond =
    List.for_all (fun a -> owner_of a = rel) (condition_attrs cond)
    && (match cond with Cmp_attr _ -> false | _ -> true)
  in
  let leaf rel =
    let s = schema_of rel in
    let cols =
      match Hashtbl.find_opt needed rel with
      | Some set when not (Attr.Set.is_empty set) -> set
      | _ -> Attr.Set.singleton (List.hd (Schema.attr_list s))
    in
    let base = Plan.project cols (Plan.base s) in
    let local = List.filter (is_single_rel rel) q.where in
    match local with
    | [] -> base
    | _ -> Plan.select (List.concat_map clauses_of_condition local) base
  in
  (* join tree over the FROM order *)
  let cross_conds =
    List.filter
      (fun c ->
        match c with
        | Cmp_attr (a, _, b) -> owner_of a <> owner_of b
        | _ -> not (List.exists (fun rel -> is_single_rel rel c) q.from))
      (q.join_on @ q.where)
  in
  let joined, leftover =
    match q.from with
    | [] -> fail "empty FROM"
    | first :: rest ->
        List.fold_left
          (fun (acc, remaining) rel ->
            let right = leaf rel in
            let connects, rest_conds =
              List.partition
                (fun c ->
                  match c with
                  | Cmp_attr (a, _, b) ->
                      let a = attr a and b = attr b in
                      let sa = Attr.Set.mem a (Plan.schema acc)
                      and sb = Attr.Set.mem b (Plan.schema right) in
                      let sa' = Attr.Set.mem b (Plan.schema acc)
                      and sb' = Attr.Set.mem a (Plan.schema right) in
                      (sa && sb) || (sa' && sb')
                  | _ -> false)
                remaining
            in
            let node =
              match connects with
              | [] -> Plan.product acc right
              | _ ->
                  Plan.join
                    (List.concat_map clauses_of_condition connects)
                    acc right
            in
            (node, rest_conds))
          (leaf first, cross_conds) rest
  in
  let joined =
    match leftover with
    | [] -> joined
    | _ -> Plan.select (List.concat_map clauses_of_condition leftover) joined
  in
  (* aggregation *)
  let agg_items = List.filter (function Agg _ -> true | Col _ -> false) q.select in
  let col_items =
    List.filter_map (function Col c -> Some c | Agg _ -> None) q.select
  in
  let result =
    if agg_items = [] && q.group_by = [] then
      let cols = Attr.Set.of_list (List.map attr col_items) in
      if q.distinct then
        (* DISTINCT = duplicate elimination: a group-by with no
           aggregates over the selected columns *)
        Plan.group_by cols [] joined
      else if Attr.Set.equal cols (Plan.schema joined) then joined
      else Plan.project cols joined
    else begin
      List.iter
        (fun c ->
          if not (List.mem c q.group_by) then
            fail "column %s must appear in GROUP BY" c)
        col_items;
      let keys = Attr.Set.of_list (List.map attr q.group_by) in
      Plan.group_by keys (List.map (agg_of attr) agg_items) joined
    end
  in
  let result =
    match q.having with
    | [] -> result
    | conds -> Plan.select (List.concat_map clauses_of_condition conds) result
  in
  let result =
    match q.order_by with
    | [] -> result
    | keys ->
        Plan.order_by
          (List.map
             (fun (c, desc) ->
               (attr c, if desc then Plan.Desc else Plan.Asc))
             keys)
          result
  in
  match q.limit with None -> result | Some n -> Plan.limit n result

let parse_and_plan ~catalog input = to_plan ~catalog (Sql_parser.parse input)
