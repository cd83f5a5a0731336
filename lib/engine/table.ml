open Relalg

(* One immutable layout: a typed column per attribute plus an explicit
   row count (a zero-column table still has a cardinality). Operators
   share columns freely across tables and domains; nothing is cached or
   filled in later. A column is found by scanning the header for the
   attribute's id: tables are a few columns wide, so no index is kept. *)
type t = {
  attrs : Attr.t list;
  nrows : int;
  cols : Column.t array;
}

let of_columns ~nrows attrs cols =
  let n = List.length attrs in
  if Array.length cols <> n then
    invalid_arg
      (Printf.sprintf "Table.of_columns: %d columns, header arity %d"
         (Array.length cols) n);
  Array.iteri
    (fun j c ->
      if Column.length c <> nrows then
        invalid_arg
          (Printf.sprintf "Table.of_columns: column %d has %d rows, expected %d"
             j (Column.length c) nrows))
    cols;
  { attrs; nrows; cols }

let create attrs rows =
  let n = List.length attrs in
  let arr = Array.of_list rows in
  Array.iter
    (fun r ->
      if Array.length r <> n then
        invalid_arg
          (Printf.sprintf "Table.create: row arity %d, header arity %d"
             (Array.length r) n))
    arr;
  of_columns ~nrows:(Array.length arr) attrs
    (Array.init n (fun j -> Column.of_values (Array.map (fun r -> r.(j)) arr)))

let of_schema s rows = create (Schema.attr_list s) rows
let attrs t = t.attrs
let cardinality t = t.nrows
let columns t = t.cols
let row t i = Array.map (fun c -> Column.get c i) t.cols
(* column by column, so a sealed column materializes in one batch *)
let rows t =
  let cols = Array.map Column.to_values t.cols in
  List.init t.nrows (fun i -> Array.map (fun c -> c.(i)) cols)

exception Unknown_attribute of { attr : string; columns : string list }

(* the last position of [a] in [attrs], or -1 *)
let position attrs a =
  let rec go i found = function
    | [] -> found
    | b :: rest -> go (i + 1) (if Attr.equal a b then i else found) rest
  in
  go 0 (-1) attrs

let col_index_opt t a =
  match position t.attrs a with -1 -> None | i -> Some i

let col_index t a =
  match position t.attrs a with
  | -1 ->
      raise
        (Unknown_attribute
           { attr = Attr.name a; columns = List.map Attr.name t.attrs })
  | i -> i

let column t a = t.cols.(col_index t a)
let value t row a = row.(col_index t a)

let select_columns t attrs =
  of_columns ~nrows:t.nrows attrs (Array.of_list (List.map (column t) attrs))

let gather t idx =
  of_columns ~nrows:(Array.length idx) t.attrs
    (Array.map (fun c -> Column.gather c idx) t.cols)

let sub t pos len =
  of_columns ~nrows:len t.attrs (Array.map (fun c -> Column.sub c pos len) t.cols)

let row_key r = String.concat "\x00" (Array.to_list (Array.map Value.to_string r))

let equal_bag a b =
  let a_sorted = List.sort Attr.compare a.attrs in
  let b_sorted = List.sort Attr.compare b.attrs in
  List.equal Attr.equal a_sorted b_sorted
  &&
  let canon t =
    let t = select_columns t a_sorted in
    List.sort String.compare (List.map row_key (rows t))
  in
  List.equal String.equal (canon a) (canon b)

let enc_bytes payload_length = payload_length + 8

let value_bytes = function
  | Value.Null -> 1
  | Value.Bool _ -> 1
  | Value.Int _ -> 8
  | Value.Float _ -> 8
  | Value.Str s -> String.length s
  | Value.Date _ -> 4
  | Value.Enc c -> enc_bytes (String.length c.Value.payload)

(* a sealed cell weighs what its bytes will, without producing them *)
let sealed_bytes s = function
  | Value.Null -> 1
  | v -> enc_bytes (Enc_exec.sealed_payload_length s v)

let byte_size t =
  Array.fold_left
    (fun acc c ->
      match c with
      | Column.Ints a -> acc + (8 * Array.length a)
      | Column.Dates a -> acc + (4 * Array.length a)
      | Column.Floats a -> acc + (8 * Array.length a)
      | Column.Bools a -> acc + Array.length a
      | Column.Strs a -> Array.fold_left (fun acc s -> acc + String.length s) acc a
      | Column.Values a -> Array.fold_left (fun acc v -> acc + value_bytes v) acc a
      | Column.Sealed s ->
          Array.fold_left
            (fun acc v -> acc + sealed_bytes s v)
            acc
            (Column.to_values s.Column.plain))
    0 t.cols

let to_string ?(limit = 20) t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat " | " (List.map Attr.name t.attrs));
  Buffer.add_char buf '\n';
  for i = 0 to min limit t.nrows - 1 do
    Buffer.add_string buf
      (String.concat " | " (Array.to_list (Array.map Value.to_string (row t i))));
    Buffer.add_char buf '\n'
  done;
  if t.nrows > limit then
    Buffer.add_string buf (Printf.sprintf "... (%d rows total)\n" t.nrows);
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)
