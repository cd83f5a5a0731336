type column_type = Tint | Tfloat | Tstring | Tdate | Tbool

let type_name = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "string"
  | Tdate -> "date"
  | Tbool -> "bool"

type storage =
  | At_authority
  | Outsourced of { host : string; encrypted : Attr.Set.t }

type t = {
  name : string;
  owner : string;
  columns : (Attr.t * column_type) list;
  storage : storage;
}

let outsourced ~host ~encrypted =
  Outsourced { host; encrypted = Attr.Set.of_names encrypted }

let make ~name ~owner ?(storage = At_authority) cols =
  let columns = List.map (fun (n, ty) -> (Attr.make n, ty)) cols in
  let names = List.map fst columns in
  let distinct = List.sort_uniq Attr.compare names in
  if List.length distinct <> List.length names then
    invalid_arg (Printf.sprintf "Schema.make %s: duplicate column" name);
  (match storage with
  | At_authority -> ()
  | Outsourced { encrypted; _ } ->
      let unknown =
        Attr.Set.diff encrypted (Attr.Set.of_list names)
      in
      if not (Attr.Set.is_empty unknown) then
        invalid_arg
          (Printf.sprintf "Schema.make %s: storage mentions unknown columns %s"
             name
             (Attr.Set.to_string unknown)));
  { name; owner; columns; storage }

let attrs t = Attr.Set.of_list (List.map fst t.columns)
let attr_list t = List.map fst t.columns
let arity t = List.length t.columns
let mem t a = List.exists (fun (b, _) -> Attr.equal a b) t.columns
let type_of t a = List.assoc_opt a t.columns

let stored_encrypted t =
  match t.storage with
  | At_authority -> Attr.Set.empty
  | Outsourced { encrypted; _ } -> encrypted

let host_name t =
  match t.storage with
  | At_authority -> t.owner
  | Outsourced { host; _ } -> host

let pp fmt t =
  Format.fprintf fmt "%s@%s%s(%s)" t.name t.owner
    (match t.storage with
    | At_authority -> ""
    | Outsourced { host; encrypted } ->
        Printf.sprintf "->%s[%s]" host (Attr.Set.to_string encrypted))
    (String.concat ", " (List.map (fun (a, _) -> Attr.name a) t.columns))
