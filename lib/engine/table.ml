open Relalg

(* One layout: a typed column per attribute plus an explicit row count
   (a zero-column table still has a cardinality). A column is found by
   scanning the header for the attribute's id: tables are a few columns
   wide, so no index is kept.

   Inside the executor a column may be a view: [views.(j) = Some idx]
   says row [k] of column [j] is row [idx.(k)] of [cols.(j)], and a
   table with no view keeps no [views] at all ([[||]]). Gathering
   a table composes the views' index arrays, one composition per
   distinct array, instead of copying cells; the first read of a view
   column gathers it once and writes the result back in place. A table
   whose slots are all [None] is complete and never written again, so
   complete tables are shared freely, across tables and domains; a
   table with views stays on the domain that executes its plan
   ([Exec] completes every table it hands out). *)
type t = {
  attrs : Attr.t list;
  nrows : int;
  cols : Column.t array;
  mutable views : int array option array;
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
  { attrs; nrows; cols; views = [||] }

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

(* column [j], a view gathered and written back in place *)
let nth t j =
  match t.views with
  | [||] -> t.cols.(j)
  | views -> (
      match views.(j) with
      | None -> t.cols.(j)
      | Some idx ->
          let c = Column.gather t.cols.(j) idx in
          t.cols.(j) <- c;
          views.(j) <- None;
          c)

let materialize t =
  if Array.length t.views > 0 then begin
    for j = 0 to Array.length t.cols - 1 do
      ignore (nth t j)
    done;
    t.views <- [||]
  end;
  t

let is_materialized t = Array.for_all Option.is_none t.views

(* the table's slots, one per column *)
let slots t = if Array.length t.views = 0 then Array.make (Array.length t.cols) None else t.views

let columns t = (materialize t).cols
let row t i = Array.map (fun c -> Column.get c i) (columns t)
(* column by column, so a sealed column materializes in one batch *)
let rows t =
  let cols = Array.map Column.to_values (columns t) in
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

let column t a = nth t (col_index t a)
let value t row a = row.(col_index t a)

let select_columns t attrs =
  let js = Array.of_list (List.map (col_index t) attrs) in
  { attrs; nrows = t.nrows; cols = Array.map (Array.get t.cols) js;
    views = (if Array.length t.views = 0 then [||] else Array.map (Array.get t.views) js) }

(* [b.(k)] = [a.(idx.(k))], stored without a write barrier *)
let compose a idx len =
  let b = Array.make len 0 in
  for k = 0 to len - 1 do
    Array.unsafe_set b k a.(Array.unsafe_get idx k)
  done;
  b

let gather ?len t idx =
  let len = Option.value len ~default:(Array.length idx) in
  if len > Array.length idx then invalid_arg "Table.gather: len beyond the index array";
  (* one fresh index array per distinct source: a copy of [idx] for the
     complete columns, [a] composed with it for the views over [a] *)
  let own = ref None and composed = ref [] in
  let view = function
    | None -> (
        match !own with
        | Some b -> b
        | None ->
            let b = Array.sub idx 0 len in
            own := Some b;
            b)
    | Some a -> (
        match List.assq_opt a !composed with
        | Some b -> b
        | None ->
            let b = compose a idx len in
            composed := (a, b) :: !composed;
            b)
  in
  { t with nrows = len; cols = Array.copy t.cols;
    views = Array.map (fun v -> Some (view v)) (slots t) }

let sub t pos len =
  if pos = 0 && len = t.nrows then t else gather t (Array.init len (fun k -> pos + k))

let beside a b =
  if a.nrows <> b.nrows then
    invalid_arg (Printf.sprintf "Table.beside: %d rows beside %d" a.nrows b.nrows);
  { attrs = a.attrs @ b.attrs; nrows = a.nrows; cols = Array.append a.cols b.cols;
    views =
      (if Array.length a.views = 0 && Array.length b.views = 0 then [||]
       else Array.append (slots a) (slots b)) }

let replace t cs =
  let cols = Array.copy t.cols and views = Array.copy t.views in
  List.iter
    (fun (j, c) ->
      if Column.length c <> t.nrows then
        invalid_arg
          (Printf.sprintf "Table.replace: column %d has %d rows, expected %d" j
             (Column.length c) t.nrows);
      cols.(j) <- c;
      if Array.length views > 0 then views.(j) <- None)
    cs;
  { t with cols; views }

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
    0 (columns t)

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
