open Relalg

exception Csv_error of string

let err fmt = Format.kasprintf (fun s -> raise (Csv_error s)) fmt

(* split a CSV text into rows of raw fields, honoring quotes *)
let split_rows text =
  let rows = ref [] and fields = ref [] and buf = Buffer.create 32 in
  let quoted_field = ref false in
  let push_field () =
    fields := (Buffer.contents buf, !quoted_field) :: !fields;
    Buffer.clear buf;
    quoted_field := false
  in
  let push_row () =
    push_field ();
    (match !fields with
    | [ ("", false) ] -> () (* blank line *)
    | fs -> rows := List.rev fs :: !rows);
    fields := []
  in
  let n = String.length text in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = text.[!i] in
    if !in_quotes then
      if c = '"' then
        if !i + 1 < n && text.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          i := !i + 1
        end
        else in_quotes := false
      else Buffer.add_char buf c
    else
      (match c with
      | '"' ->
          in_quotes := true;
          quoted_field := true
      | ',' -> push_field ()
      | '\n' -> push_row ()
      | '\r' -> ()
      | c -> Buffer.add_char buf c);
    incr i
  done;
  if !in_quotes then err "unterminated quote";
  if Buffer.length buf > 0 || !fields <> [] then push_row ();
  List.rev !rows

let parse_value ty (raw, quoted) =
  let raw = if quoted then raw else String.trim raw in
  if raw = "" && not quoted then Value.Null
  else
    match ty with
    | Schema.Tint -> (
        match int_of_string_opt raw with
        | Some i -> Value.Int i
        | None -> err "not an integer: %s" raw)
    | Schema.Tfloat -> (
        match float_of_string_opt raw with
        | Some f -> Value.Float f
        | None -> err "not a number: %s" raw)
    | Schema.Tstring -> Value.Str raw
    | Schema.Tdate -> (
        try Value.date_of_string raw
        with Invalid_argument _ -> err "not a date: %s" raw)
    | Schema.Tbool -> (
        match String.lowercase_ascii raw with
        | "true" | "t" | "1" -> Value.Bool true
        | "false" | "f" | "0" -> Value.Bool false
        | _ -> err "not a boolean: %s" raw)

let parse schema text =
  let rows = split_rows text in
  let cols = Schema.attr_list schema in
  let order, data_rows =
    match rows with
    | [] -> err "empty input"
    | hd :: rest ->
        let names = List.map (fun (f, _) -> String.trim f) hd in
        let order =
          List.map
            (fun name ->
              match
                List.find_opt
                  (fun a ->
                    String.lowercase_ascii (Attr.name a)
                    = String.lowercase_ascii name)
                  cols
              with
              | Some a -> a
              | None -> err "unknown column %s" name)
            names
        in
        let rec dup = function
          | [] -> None
          | a :: rest ->
              if List.exists (Attr.equal a) rest then Some a else dup rest
        in
        (match dup order with
        | Some a -> err "duplicate column %s in header" (Attr.name a)
        | None -> ());
        let missing =
          List.filter (fun a -> not (List.memq a order)) cols
        in
        if missing <> [] then
          err "missing columns: %s"
            (String.concat "," (List.map Attr.name missing));
        (order, rest)
  in
  let arity = List.length order in
  let table_rows =
    List.map
      (fun fields ->
        if List.length fields <> arity then
          err "row arity %d, expected %d" (List.length fields) arity;
        let by_attr =
          List.map2
            (fun a f ->
              let ty =
                match Schema.type_of schema a with
                | Some ty -> ty
                | None ->
                    err "column %s of %s has no declared type" (Attr.name a)
                      schema.Schema.name
              in
              (a, parse_value ty f))
            order fields
        in
        Array.of_list (List.map (fun a -> List.assoc a by_attr) cols))
      data_rows
  in
  Table.of_schema schema table_rows

let load schema path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse schema text

let escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let render_value = function
  | Value.Null -> ""
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%g" f
  | Value.Str s -> escape s
  | Value.Date _ as v -> Value.to_string v
  | Value.Enc c ->
      let hex = Buffer.create (2 * String.length c.Value.payload) in
      String.iter
        (fun ch -> Buffer.add_string hex (Printf.sprintf "%02x" (Char.code ch)))
        c.Value.payload;
      Printf.sprintf "enc:%s:%s" c.Value.scheme (Buffer.contents hex)

(* [render_value] of a cell, written unboxed from typed columns *)
let render_cell buf c i =
  match c with
  | Column.Ints a -> Buffer.add_string buf (string_of_int a.(i))
  | Column.Strs a -> Buffer.add_string buf (escape a.(i))
  | Column.Bools a -> Buffer.add_string buf (string_of_bool a.(i))
  | Column.Floats _ | Column.Dates _ | Column.Values _ | Column.Sealed _ ->
      Buffer.add_string buf (render_value (Column.get c i))

let to_string table =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat "," (List.map Attr.name (Table.attrs table)));
  Buffer.add_char buf '\n';
  (* a sealed column's bytes are produced here, in one batch *)
  let cols =
    Array.map
      (function Column.Sealed _ as c -> Column.Values (Column.to_values c) | c -> c)
      (Table.columns table)
  in
  for i = 0 to Table.cardinality table - 1 do
    Array.iteri
      (fun j c ->
        if j > 0 then Buffer.add_char buf ',';
        render_cell buf c i)
      cols;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
