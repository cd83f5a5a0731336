open Relalg

type grantee = To of Subject.t | Any

type rule = {
  relation : string;
  grantee : grantee;
  plain : Attr.Set.t;
  enc : Attr.Set.t;
}

type view = { plain : Attr.Set.t; enc : Attr.Set.t }

(* [views] holds the overall view of every subject some rule names;
   every other subject sees [any_view]. Both are derived once, in
   [make], so [view] is a lookup. *)
type t = {
  schemas : Schema.t list;
  rules : rule list;
  views : view Subject.Map.t;
  any_view : view;
}

let rule ~rel ?(plain = []) ?(enc = []) grantee =
  let plain = Attr.Set.of_names plain and enc = Attr.Set.of_names enc in
  if not (Attr.Set.is_empty (Attr.Set.inter plain enc)) then
    invalid_arg
      (Printf.sprintf "Authorization.rule %s: P and E intersect on %s" rel
         (Attr.Set.to_string (Attr.Set.inter plain enc)));
  { relation = rel; grantee; plain; enc }

let grantee_equal a b =
  match (a, b) with
  | Any, Any -> true
  | To s, To s' -> Subject.equal s s'
  | _ -> false

let validate schemas rules =
  List.iter
    (fun r ->
      match List.find_opt (fun s -> s.Schema.name = r.relation) schemas with
      | None ->
          invalid_arg
            (Printf.sprintf "Authorization.make: unknown relation %s"
               r.relation)
      | Some s ->
          let unknown =
            Attr.Set.diff (Attr.Set.union r.plain r.enc) (Schema.attrs s)
          in
          if not (Attr.Set.is_empty unknown) then
            invalid_arg
              (Printf.sprintf
                 "Authorization.make: rule on %s mentions foreign attributes %s"
                 r.relation
                 (Attr.Set.to_string unknown)))
    rules;
  let rec check_dup = function
    | [] -> ()
    | r :: rest ->
        if
          List.exists
            (fun r' ->
              r'.relation = r.relation && grantee_equal r'.grantee r.grantee)
            rest
        then
          invalid_arg
            (Printf.sprintf
               "Authorization.make: duplicate rule for relation %s" r.relation)
        else check_dup rest
  in
  check_dup rules

let named_subjects rules =
  List.fold_left
    (fun acc r ->
      match r.grantee with To s -> Subject.Set.add s acc | Any -> acc)
    Subject.Set.empty rules

let empty_view = { plain = Attr.Set.empty; enc = Attr.Set.empty }

(* What subject [s] may see of relation [rel]: its explicit rule if any,
   else the relation's [any] rule, else nothing. [None] stands for a
   subject no rule names. *)
let relation_view_in rules rel s =
  let for_grantee g =
    List.find_opt (fun r -> r.relation = rel && grantee_equal r.grantee g) rules
  in
  let explicit = match s with Some s -> for_grantee (To s) | None -> None in
  match explicit with
  | Some r -> { plain = r.plain; enc = r.enc }
  | None -> (
      match for_grantee Any with
      | Some r -> { plain = r.plain; enc = r.enc }
      | None -> empty_view)

let make ~schemas rules =
  validate schemas rules;
  (* Implicit: each authority sees its own relation in plaintext, and an
     outsourcing host sees what it physically stores (plaintext columns
     plaintext, at-rest-encrypted columns encrypted). *)
  let unless_explicit s grantee rule =
    if
      List.exists
        (fun r -> r.relation = s.Schema.name && grantee_equal r.grantee grantee)
        rules
    then None
    else Some rule
  in
  let implicit =
    List.concat_map
      (fun s ->
        let owner = Subject.authority s.Schema.owner in
        let owner_rule =
          unless_explicit s (To owner)
            { relation = s.Schema.name;
              grantee = To owner;
              plain = Schema.attrs s;
              enc = Attr.Set.empty }
        in
        let host_rule =
          match s.Schema.storage with
          | Schema.At_authority -> None
          | Schema.Outsourced { host; encrypted } ->
              let host = Subject.provider host in
              unless_explicit s (To host)
                { relation = s.Schema.name;
                  grantee = To host;
                  plain = Attr.Set.diff (Schema.attrs s) encrypted;
                  enc = encrypted }
        in
        List.filter_map Fun.id [ owner_rule; host_rule ])
      schemas
  in
  let rules = rules @ implicit in
  let view_of s =
    List.fold_left
      (fun acc sch ->
        let v = relation_view_in rules sch.Schema.name s in
        { plain = Attr.Set.union acc.plain v.plain;
          enc = Attr.Set.union acc.enc v.enc })
      empty_view schemas
  in
  { schemas;
    rules;
    views =
      Subject.Set.fold
        (fun s acc -> Subject.Map.add s (view_of (Some s)) acc)
        (named_subjects rules) Subject.Map.empty;
    any_view = view_of None }

let schemas t = t.schemas
let rules t = t.rules
let relation_view t rel s = relation_view_in t.rules rel (Some s)

let view t s =
  match Subject.Map.find_opt s t.views with
  | Some v -> v
  | None -> t.any_view

let explicit_subjects t = named_subjects t.rules

let pp_rule fmt (r : rule) =
  Format.fprintf fmt "[%s,%s]->%s on %s"
    (Attr.Set.to_string r.plain)
    (Attr.Set.to_string r.enc)
    (match r.grantee with To s -> Subject.name s | Any -> "any")
    r.relation

let pp_view fmt v =
  Format.fprintf fmt "P=%s E=%s"
    (Attr.Set.to_string v.plain)
    (Attr.Set.to_string v.enc)

let pp fmt t =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_newline fmt ())
    pp_rule fmt t.rules
