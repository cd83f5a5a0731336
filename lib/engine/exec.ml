open Relalg
module C = Mpq_crypto

exception Exec_error of string

let err fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

type udf = Value.t list -> Value.t

type context = {
  tables : (string * Table.t) list;
  udfs : (string * udf) list;
  crypto : Enc_exec.ctx option;
}

let context ?(udfs = []) ?crypto tables = { tables; udfs; crypto }

(* Largest magnitude below which every integer-valued float is exactly
   one machine integer (2^53): under it, Int i and Float f that are
   equal under Value.equal share the canonical "N" encoding. Above it,
   Value.equal compares an Int through its float image, so the key does
   too — ints that collapse onto the same float share a bucket, which is
   sound because hash-path matches re-check the join predicate. *)
let exact_int_float = 9007199254740992.0 (* 2^53 *)

let float_key f =
  if Float.is_integer f && Float.abs f < exact_int_float then
    "N" ^ string_of_int (int_of_float f)
  else Printf.sprintf "F%h" f

let int_key i =
  if Float.abs (float_of_int i) < exact_int_float then "N" ^ string_of_int i
  else float_key (float_of_int i)

(* The bucket key of a cell. A group-by partitions ciphertext by its
   payload; a join only needs rows that its predicate finds equal to
   share a bucket, and the predicate finds OPE ciphertexts equal by type
   class and cent image ([Enc_exec.ope_equal]: Int 4 = Float 4.0), so
   [~join] keys them that way. A sealed det or OPE cell is keyed by its
   plaintext ([Enc_exec.sealed_key]) with no cipher run; a sealed rnd
   cell by its payload. *)
let hash_key ~join = function
  | Value.Enc c ->
      let own =
        if join && String.equal c.Value.scheme "ope" then Enc_exec.ope_equal_key c
        else c.Value.payload
      in
      String.concat "" [ "E"; c.Value.scheme; "/"; c.Value.key_id; "/"; own ]
  | Value.Int i -> int_key i
  | Value.Float f -> float_key f
  | Value.Str s -> "S" ^ s
  | Value.Date d -> "D" ^ string_of_int d
  | Value.Bool b -> if b then "B1" else "B0"
  | Value.Null -> "_"

let cell_key ~join c i =
  match c with
  | Column.Sealed s when not (String.equal s.Column.scheme "rnd") ->
      Enc_exec.sealed_key ~join s i
  | c -> hash_key ~join (Column.get c i)

(* A multi-column key prefixes each cell's key with its length (4
   bytes), so no cell's bytes can shift a boundary: ("a\x01Sb", "c") and
   ("a", "b\x01Sc") stay two keys. *)
let row_key ~join cols i =
  match cols with
  | [ c ] -> cell_key ~join c i
  | _ ->
      let buf = Buffer.create 32 in
      List.iter
        (fun c ->
          let k = cell_key ~join c i in
          Buffer.add_int32_le buf (Int32.of_int (String.length k));
          Buffer.add_string buf k)
        cols;
      Buffer.contents buf

let null_at cols i = List.exists (fun c -> Column.is_null c i) cols

(* [Array.init] for ints into scratch ({!Scratch.ints}), stored without
   a write barrier *)
let init_ints n f =
  let a = Scratch.ints n in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (f i)
  done;
  a

(* --- per-column encryption (stored relations, Encrypt/Decrypt) ------- *)

(* Columnar batch encryption. Randomness is rooted per (plan node, row
   index), so ciphertext bytes depend on the row's position, never on
   evaluation order. Untouched columns are shared, not copied. *)
let encrypt_columns crypto ~node attrs table =
  let enc_attrs = Attr.Set.elements attrs in
  let enc_idx = List.map (Table.col_index table) enc_attrs in
  let encrypted =
    Enc_exec.encrypt_batch crypto ~rng_root:(Enc_exec.node_rng crypto node)
      ~enc:(List.map (fun a -> (a, Table.column table a)) enc_attrs)
  in
  Table.replace table (List.combine enc_idx encrypted)

let decrypt_columns crypto attrs table =
  Table.replace table
    (List.map
       (fun a -> (Table.col_index table a, Enc_exec.decrypt_batch crypto (Table.column table a)))
       (Attr.Set.elements attrs))

let crypt ctx ~encrypt ~node attrs table =
  match ctx.crypto with
  | None -> err "plan contains crypto operators but no crypto context given"
  | Some crypto ->
      if encrypt then encrypt_columns crypto ~node attrs table
      else decrypt_columns crypto attrs table

(* --- relational operators over columns ------------------------------- *)

let base ctx ~node s =
  match List.assoc_opt s.Schema.name ctx.tables with
  | None -> err "unknown base relation %s" s.Schema.name
  | Some t ->
      let t = Table.select_columns t (Schema.attr_list s) in
      (* outsourced relations are served as stored: at-rest-encrypted
         columns come back as ciphertext *)
      let enc = Schema.stored_encrypted s in
      if Attr.Set.is_empty enc then t
      else
        match ctx.crypto with
        | None -> err "outsourced relation %s needs a crypto context" s.Schema.name
        | Some crypto -> encrypt_columns crypto ~node enc t

let project table attrs = Table.select_columns table (Attr.Set.elements attrs)

let select ?crypto table pred =
  let n = Table.cardinality table in
  Scratch.frame @@ fun () ->
  let rows, len = Eval.select ?ctx:crypto (Table.column table) pred n in
  if len = n then table else Table.gather ~len table rows

(* row [k < len] of the output pairs row [li.(k)] of [l] with row
   [ri.(k)] of [r], as views *)
let pair_up l li r ri len = Table.beside (Table.gather ~len l li) (Table.gather ~len r ri)

let product l r =
  let nr = Table.cardinality r in
  let n = Table.cardinality l * nr in
  Scratch.frame @@ fun () ->
  pair_up l (init_ints n (fun k -> k / nr)) r (init_ints n (fun k -> k mod nr)) n

(* --- dense codes ------------------------------------------------------- *)

(* Dense codes for int keys, numbered in first-appearance order, from
   an open-addressing table in scratch: a lookup boxes nothing. The
   table starts small and doubles when half full, so it is sized by the
   distinct keys, not the rows. *)
module Codes = struct
  type t = {
    mutable slots : int array; (* a slot's code; -1: empty *)
    mutable keys : int array; (* a filled slot's key *)
    mutable mask : int; (* the capacity, a power of two, less one *)
    mutable size : int;
  }

  let create cap = { slots = Scratch.ints_filled cap (-1); keys = Scratch.ints cap; mask = cap - 1; size = 0 }

  (* the slot holding [k], or the empty one where it would go *)
  let slot t k =
    let mask = t.mask in
    let h = k * 0x9E3779B97F4A7C1 in
    let i = ref ((h lxor (h lsr 29)) land mask) in
    while t.slots.(!i) >= 0 && t.keys.(!i) <> k do
      i := (!i + 1) land mask
    done;
    !i

  (* the key's code, or -1 *)
  let find t k = t.slots.(slot t k)

  (* twice the slots, every code moved over *)
  let grow t =
    let slots = t.slots and keys = t.keys in
    let big = create (2 * (t.mask + 1)) in
    for i = 0 to t.mask do
      let c = slots.(i) in
      if c >= 0 then begin
        let j = slot big keys.(i) in
        big.slots.(j) <- c;
        big.keys.(j) <- keys.(i)
      end
    done;
    t.slots <- big.slots;
    t.keys <- big.keys;
    t.mask <- big.mask

  let rec add t k =
    let i = slot t k in
    let c = t.slots.(i) in
    if c >= 0 then c
    else if 2 * (t.size + 1) > t.mask + 1 then begin
      grow t;
      add t k
    end
    else begin
      t.keys.(i) <- k;
      t.slots.(i) <- t.size;
      t.size <- t.size + 1;
      t.size - 1
    end

  (* The codes of [keys.(0 .. n - 1)], and the table that found them; a
     key equal to [absent] has none (-1). The table stays at most half
     full. *)
  let number ?absent keys n =
    let t = create 16 in
    let skip k = match absent with Some a -> k = a | None -> false in
    (t, init_ints n (fun i -> let k = keys.(i) in if skip k then -1 else add t k))
end

(* Dense codes for string keys, the same way. *)
let string_codes () =
  let tbl = Hashtbl.create 16 in
  let add k =
    match Hashtbl.find tbl k with
    | c -> c
    | exception Not_found ->
        let c = Hashtbl.length tbl in
        Hashtbl.add tbl k c;
        c
  in
  let find k = match Hashtbl.find tbl k with c -> c | exception Not_found -> -1 in
  (add, find, fun () -> Hashtbl.length tbl)

(* [a] with [x] at [len], grown into a fresh array when full *)
let push a len x =
  let a =
    if len < Array.length a then a
    else begin
      let b = Array.make ((2 * len) + 16) 0 in
      Array.blit a 0 b 0 len;
      b
    end
  in
  Array.unsafe_set a len x;
  a

(* --- join ------------------------------------------------------------- *)

(* Equality pairs usable for hashing: conjunctive (singleton-clause)
   atoms 'a = b' with one side in each operand. *)
let equi_pairs pred l r =
  if not (List.for_all (fun c -> List.length c = 1) pred) then []
  else
    let la = Attr.Set.of_list (Table.attrs l) in
    let ra = Attr.Set.of_list (Table.attrs r) in
    List.filter_map
      (function
        | [ Predicate.Cmp_attr (a, Predicate.Eq, b) ]
          when Attr.Set.mem a la && Attr.Set.mem b ra -> Some (a, b)
        | [ Predicate.Cmp_attr (a, Predicate.Eq, b) ]
          when Attr.Set.mem b la && Attr.Set.mem a ra -> Some (b, a)
        | _ -> None)
      pred

(* Whether a column holds a ciphertext cell, and whether it holds a
   plaintext one (Nulls are neither). *)
let cell_kinds = function
  | Column.Sealed _ -> (true, false)
  | Column.Values vs ->
      ( Array.exists Value.is_encrypted vs,
        Array.exists (fun v -> not (Value.is_null v || Value.is_encrypted v)) vs )
  | _ -> (false, true)

(* A key pair can bucket only if no ciphertext cell on one side may meet
   a plaintext cell on the other: the predicate compares those by
   encrypting the plaintext ([Eval.compare_values]), which their keys
   ("E…" against "N…") cannot mirror. Such pairs are left to the
   recheck. *)
let bucketable l r (a, b) =
  let l_enc, l_plain = cell_kinds (Table.column l a)
  and r_enc, r_plain = cell_kinds (Table.column r b) in
  not ((l_enc && r_plain) || (l_plain && r_enc))

(* Bucket codes for both sides of a join: [right.(j)] is right row [j]'s
   bucket (-1: none), [left i] left row [i]'s (-1: no right row shares
   its key), and buckets are numbered [0 .. count - 1]. [right] is
   scratch. *)
type buckets = { right : int array; left : int -> int; count : int }

let int_buckets lv rkeys nr =
  let codes, right = Codes.number rkeys nr in
  { right; left = (fun i -> Codes.find codes (lv i)); count = codes.Codes.size }

let string_buckets lk rk nr =
  let add, find, count = string_codes () in
  let right = init_ints nr (fun j -> match rk j with Some k -> add k | None -> -1) in
  { right; left = (fun i -> match lk i with Some k -> find k | None -> -1); count = count () }

(* the tuple of two pairs' buckets *)
let both a b nr =
  let codes, right =
    Codes.number ~absent:(-1)
      (init_ints nr (fun j ->
           let x = a.right.(j) and y = b.right.(j) in
           if x < 0 || y < 0 then -1 else (x * b.count) + y))
      nr
  in
  let left i =
    let x = a.left i in
    if x < 0 then -1
    else
      let y = b.left i in
      if y < 0 then -1 else Codes.find codes ((x * b.count) + y)
  in
  { right; left; count = codes.Codes.size }

(* One pair's buckets where a cell's key is exact — rows share a bucket
   iff the predicate's [a = b] holds of them: typed ints, dates or
   strings, and det or OPE cells that an int or their string identify
   ({!Enc_exec.sealed_int_keys}). [None] for any other pair. *)
let exact_buckets nr lc rc =
  let strs x y nr = Some (string_buckets (fun i -> Some x.(i)) (fun j -> Some y.(j)) nr) in
  match (lc, rc) with
  | Column.Ints x, Column.Ints y | Column.Dates x, Column.Dates y ->
      Some (int_buckets (Array.get x) y nr)
  | Column.Strs x, Column.Strs y -> strs x y nr
  | Column.Sealed sl, Column.Sealed sr -> (
      match Enc_exec.sealed_int_keys sl sr with
      | Some (lkey, rkey) -> Some (int_buckets lkey (init_ints nr rkey) nr)
      | None -> (
          match (sl.Column.plain, sr.Column.plain) with
          | Column.Strs x, Column.Strs y
            when String.equal sl.Column.scheme sr.Column.scheme
                 && String.equal sl.Column.key_id sr.Column.key_id
                 && (String.equal sl.Column.scheme "det" || String.equal sl.Column.scheme "ope") ->
              strs x y nr
          | _ -> None))
  | _ -> None

(* Keys for any other pairs: the cells' strings, which are complete but
   may collapse distinct values, so matches are rechecked.
   A sealed key meeting a boxed column is materialized: the boxed side
   may hold ciphertext, which only its payload keys. A row with a Null
   key matches nothing. *)
let string_keyed lk rk nr =
  let lk, rk =
    List.split
      (List.map2
         (fun l r ->
           let bytes c = Column.Values (Column.to_values c) in
           match (l, r) with
           | Column.Sealed _, Column.Values _ -> (bytes l, r)
           | Column.Values _, Column.Sealed _ -> (l, bytes r)
           | _ -> (l, r))
         lk rk)
  in
  let key cols i = if null_at cols i then None else Some (row_key ~join:true cols i) in
  string_buckets (key lk) (key rk) nr

let join ?crypto pred l r =
  let pairs = List.filter (bucketable l r) (equi_pairs pred l r) in
  let nl = Table.cardinality l and nr = Table.cardinality r in
  let stride = max nr 1 in
  (* the predicate reads a (left, right) pair packed as [li * stride + rj];
     names resolve as in the concatenated header (a repeated attribute is
     the right side's) *)
  let cell a =
    match Table.col_index_opt r a with
    | Some _ -> (Table.column r a, fun x -> x mod stride)
    | None -> (
        match Table.col_index_opt l a with
        | Some _ -> (Table.column l a, fun x -> x / stride)
        | None ->
            raise
              (Table.Unknown_attribute
                 { attr = Attr.name a;
                   columns = List.map Attr.name (Table.attrs l @ Table.attrs r) }))
  in
  let keep = lazy (Eval.predicate ?ctx:crypto cell pred) in
  let keep li rj = Lazy.force keep ((li * stride) + rj) in
  (* the matches, left rows ascending and each one's right rows
     descending, pushed onto [lis] and [rjs], and their count *)
  let checked lis rjs candidates =
    let m = ref 0 in
    candidates (fun li rj ->
        if keep li rj then begin
          lis := push !lis !m li;
          rjs := push !rjs !m rj;
          incr m
        end);
    (!lis, !rjs, !m)
  in
  Scratch.frame @@ fun () ->
  let li, rj, len =
    match pairs with
    | _ when nl = 0 || nr = 0 ->
        (* no pair to test, and no key to build: an empty side's
           columns are boxed, and keying a sealed column against one
           would produce its bytes *)
        ([||], [||], 0)
    | [] ->
        (* fresh arrays: the nl * nr candidates would make a scratch
           array too large to keep *)
        checked (ref [||]) (ref [||]) (fun emit ->
            for li = 0 to nl - 1 do
              for rj = 0 to nr - 1 do
                emit li rj
              done
            done)
    | _ ->
        let lk = List.map (fun (a, _) -> Table.column l a) pairs in
        let rk = List.map (fun (_, b) -> Table.column r b) pairs in
        let exact = List.map2 (exact_buckets nr) lk rk in
        let b =
          if List.for_all Option.is_some exact then
            match List.map Option.get exact with
            | first :: rest -> List.fold_left (fun a b -> both a b nr) first rest
            | [] -> assert false
          else string_keyed lk rk nr
        in
        (* right rows by bucket, counted then placed: a bucket lists its
           rows in descending order, the order [Hashtbl.find_all] gave
           the row executor *)
        let start = Scratch.ints_filled (b.count + 1) 0 in
        for rj = 0 to nr - 1 do
          let k = b.right.(rj) in
          if k >= 0 then start.(k + 1) <- start.(k + 1) + 1
        done;
        for k = 1 to b.count do
          start.(k) <- start.(k) + start.(k - 1)
        done;
        let next = Scratch.ints b.count and rows = Scratch.ints start.(b.count) in
        Array.blit start 0 next 0 b.count;
        for rj = nr - 1 downto 0 do
          let k = b.right.(rj) in
          if k >= 0 then begin
            rows.(next.(k)) <- rj;
            next.(k) <- next.(k) + 1
          end
        done;
        let buckets = init_ints nl b.left in
        let each_candidate emit =
          for li = 0 to nl - 1 do
            let k = buckets.(li) in
            if k >= 0 then
              for p = start.(k) to start.(k + 1) - 1 do
                emit li rows.(p)
              done
          done
        in
        let total = ref 0 in
        for li = 0 to nl - 1 do
          let k = buckets.(li) in
          if k >= 0 then total := !total + start.(k + 1) - start.(k)
        done;
        let lis = Scratch.ints !total and rjs = Scratch.ints !total in
        (* Where every pair's key is exact and the predicate is exactly
           these pairs, each left attribute read from the left side, a
           bucket's rows all match, so every candidate is written
           straight into place. Elsewhere a match re-checks the whole
           predicate (equi clauses included): a key then only has to be
           complete — rows equal on the keys share a bucket — and the
           result is the nested loop's. *)
        if
          List.for_all Option.is_some exact
          && List.compare_lengths pairs pred = 0
          && List.for_all (fun (a, _) -> Table.col_index_opt r a = None) pairs
        then begin
          let m = ref 0 in
          each_candidate (fun li rj ->
              Array.unsafe_set lis !m li;
              Array.unsafe_set rjs !m rj;
              incr m);
          (lis, rjs, !m)
        end
        else checked (ref lis) (ref rjs) each_candidate
  in
  pair_up l li r rj len

(* --- aggregation ----------------------------------------------------- *)

let numeric v =
  match Value.to_float v with
  | Some f -> f
  | None -> err "aggregate over non-numeric %s" (Value.to_string v)

let all_ints vs = List.for_all (function Value.Int _ -> true | _ -> false) vs

(* [aggregate agg operand rows] folds [agg], a sum, avg, min or max,
   over the operand's cells at [rows], in order. Counts are
   [group_by]'s count kernel's. *)
let aggregate ?crypto (agg : Aggregate.t) operand rows =
  let live =
    match operand with
    | Some c -> List.filter (fun i -> not (Column.is_null c i)) rows
    | None -> []
  in
  let encrypted =
    match operand with
    | Some c -> List.exists (Column.is_encrypted c) live
    | None -> false
  in
  let non_null () =
    match operand with Some c -> List.map (Column.get c) live | None -> []
  in
  let with_crypto what f =
    match crypto with
    | Some c -> f c
    | None -> err "encrypted %s requires a crypto context" what
  in
  match agg.Aggregate.func with
  | Aggregate.Count_star | Aggregate.Count _ -> invalid_arg "Exec.aggregate: a count"
  | Aggregate.Sum _ when encrypted ->
      with_crypto "sum" (fun c -> Enc_exec.phe_sum c (non_null ()) ~avg:false)
  | Aggregate.Avg _ when encrypted ->
      with_crypto "avg" (fun c -> Enc_exec.phe_sum c (non_null ()) ~avg:true)
  | Aggregate.Sum _ ->
      let non_null = non_null () in
      if non_null = [] then Value.Null
      else if all_ints non_null then
        Value.Int
          (List.fold_left
             (fun acc v -> acc + match v with Value.Int i -> i | _ -> 0)
             0 non_null)
      else Value.Float (List.fold_left (fun acc v -> acc +. numeric v) 0.0 non_null)
  | Aggregate.Avg _ ->
      let non_null = non_null () in
      if non_null = [] then Value.Null
      else
        Value.Float
          (List.fold_left (fun acc v -> acc +. numeric v) 0.0 non_null
          /. float_of_int (List.length non_null))
  | Aggregate.Min _ | Aggregate.Max _ -> (
      let order =
        match agg.Aggregate.func with Aggregate.Min _ -> -1 | _ -> 1
      in
      let better a b =
        match (a, b) with
        | Value.Enc ca, Value.Enc cb
          when ca.Value.scheme = "ope" && cb.Value.scheme = "ope" ->
            Enc_exec.ope_compare ca cb * order < 0
        | Value.Enc _, _ | _, Value.Enc _ ->
            err "min/max over non-OPE ciphertext"
        | _ -> ( try Value.compare a b * order < 0 with Value.Incomparable _ -> false)
      in
      match non_null () with
      | [] -> Value.Null
      | first :: rest ->
          List.fold_left (fun best v -> if better v best then v else best) first rest)

(* min/max over a sealed operand: the fold [aggregate] makes, over row
   numbers, comparing cells by their plaintext, so the result is a row
   of the operand and the output column stays sealed. A group with no
   live cell gives its first row, a Null. *)
let sealed_extreme (agg : Aggregate.t) (s : Column.sealed) rows =
  let order = match agg.Aggregate.func with Aggregate.Min _ -> -1 | _ -> 1 in
  let better i j =
    if String.equal s.Column.scheme "ope" then Enc_exec.sealed_order s i s j * order < 0
    else err "min/max over non-OPE ciphertext"
  in
  match List.filter (fun i -> not (Column.is_null s.Column.plain i)) rows with
  | [] -> List.hd rows
  | first :: rest ->
      List.fold_left (fun best i -> if better i best then i else best) first rest

(* Each row's code for one key column, dense in first-appearance order:
   two rows share a code iff [cell_key ~join:false] gives them one key.
   Typed ints (below 2^53), dates and booleans key by their int, strings
   by themselves, and det or OPE cells over typed ints, dates, booleans
   or strings by their plaintext, which their key is a function of; any
   other column by [cell_key]'s string. The codes are scratch. *)
let column_codes c n =
  let by_int keys =
    let codes, a = Codes.number keys n in
    (a, codes.Codes.size)
  in
  let by_string f =
    let add, _, count = string_codes () in
    let a = init_ints n (fun i -> add (f i)) in
    (a, count ())
  in
  let exact = Array.for_all (fun x -> Float.abs (float_of_int x) < exact_int_float) in
  match c with
  | Column.Ints a when exact a -> by_int a
  | Column.Dates a -> by_int a
  | Column.Bools a -> by_int (init_ints n (fun i -> Bool.to_int a.(i)))
  | Column.Strs a -> by_string (Array.get a)
  | Column.Sealed { Column.scheme = "det" | "ope"; plain; _ } -> (
      match plain with
      | Column.Ints a | Column.Dates a -> by_int a
      | Column.Bools a -> by_int (init_ints n (fun i -> Bool.to_int a.(i)))
      | Column.Strs a -> by_string (Array.get a)
      | _ -> by_string (cell_key ~join:false c))
  | _ -> by_string (cell_key ~join:false c)

(* Each row's group id, groups numbered in first-appearance order, and
   the number of groups: the key columns' codes, combined column by
   column into dense codes. No key column makes one group. The ids are
   scratch. *)
let group_ids cols n =
  match cols with
  | [] -> (Scratch.ints_filled n 0, min n 1)
  | c :: rest ->
      List.fold_left
        (fun (a, _) c ->
          let b, kb = column_codes c n in
          let codes, ab = Codes.number (init_ints n (fun i -> (a.(i) * kb) + b.(i))) n in
          (ab, codes.Codes.size))
        (column_codes c n) rest

(* The unboxed order of two cells of a typed column. *)
let typed_order = function
  | Column.Ints a | Column.Dates a -> Some (fun i j -> Int.compare a.(i) a.(j))
  | Column.Floats a -> Some (fun i j -> Float.compare a.(i) a.(j))
  | Column.Strs a -> Some (fun i j -> String.compare a.(i) a.(j))
  | Column.Bools a -> Some (fun i j -> Bool.compare a.(i) a.(j))
  | Column.Sealed ({ Column.scheme = "ope"; _ } as s) -> Enc_exec.typed_order s s
  | Column.Values _ | Column.Sealed _ -> None

(* Per-group float sums of a typed numeric column's cells, read as
   [numeric] reads them and added in row order; [None] for another
   column. [gid] is row [i]'s group, for the column's rows. *)
let float_sums c gid ng =
  let sums = Array.make ng 0.0 in
  let add i x =
    let g = Array.unsafe_get gid i in
    sums.(g) <- sums.(g) +. x
  in
  match c with
  | Column.Floats a ->
      Array.iteri add a;
      Some sums
  | Column.Ints a | Column.Dates a ->
      Array.iteri (fun i x -> add i (float_of_int x)) a;
      Some sums
  | Column.Bools a ->
      Array.iteri (fun i b -> add i (if b then 1.0 else 0.0)) a;
      Some sums
  | _ -> None

(* The errors an operator raises at a row or a group: the row loop's,
   and the executor's own. *)
let row_error = function Exec_error _ -> true | e -> Eval.row_error e

(* an aggregate's first failing group, and its error *)
exception At of int * exn

(* Groups' values in [aggregate]'s representation: [Column.of_values]
   of them, built unboxed. *)
let per_group ng typed f = if ng = 0 then Column.of_values [||] else typed (Array.init ng f)

let group_by ?crypto ~node table keys aggs =
  let key_attrs = Attr.Set.elements keys in
  let key_cols = List.map (Table.column table) key_attrs in
  let n = Table.cardinality table in
  Scratch.frame @@ fun () ->
  (* every row's group, groups in first-appearance order, as one
     sequential pass would find them; each group's first row and size.
     The ids are scratch, so every loop over them stops at [n]. *)
  let gid, ng = group_ids key_cols n in
  let firsts = Array.make ng 0 and sizes = Array.make ng 0 in
  for i = n - 1 downto 0 do
    let g = gid.(i) in
    firsts.(g) <- i;
    sizes.(g) <- sizes.(g) + 1
  done;
  let agg_ops =
    List.filter_map
      (fun (agg : Aggregate.t) ->
        if Attr.Set.mem agg.Aggregate.output keys then None
        else Some (agg, Option.map (Table.column table) (Aggregate.operand agg)))
      aggs
  in
  let nrng = Option.map (fun c -> Enc_exec.node_rng c node) crypto in
  (* each group's rows, in input order *)
  let groups =
    lazy
      (let start = Array.make (ng + 1) 0 in
       Array.iteri (fun g k -> start.(g + 1) <- start.(g) + k) sizes;
       let rows = Array.make n 0 in
       for i = 0 to n - 1 do
         let g = gid.(i) in
         rows.(start.(g)) <- i;
         start.(g) <- start.(g) + 1
       done;
       Array.init ng (fun g -> Array.sub rows (start.(g) - sizes.(g)) sizes.(g)))
  in
  (* The column kernels: each aggregate in one pass over the rows, in row
     order, into per-group accumulators, so each group still adds its
     floats in input order. An operand these do not cover (boxed, or a
     sum over strings or ciphertext) folds each group's row list. Group
     [j]'s randomness is derived from [j], one generator shared by the
     group's aggregates in order. A kernel that fails raises [At (g, e)]:
     [e] is the error the group-at-a-time fold meets at group [g], the
     first group where this aggregate fails. *)
  let at g f = try f () with e when row_error e -> raise (At (g, e)) in
  let rngs = Array.make ng None in
  let rng g =
    match rngs.(g) with
    | Some r -> r
    | None ->
        let r = C.Prng.derive (Option.get nrng) g in
        rngs.(g) <- Some r;
        r
  in
  let kernel ((agg : Aggregate.t), operand) =
    let fold_groups f =
      Array.init ng (fun g -> at g (fun () -> f (Array.to_list (Lazy.force groups).(g))))
    in
    let folded () = Column.of_values (fold_groups (aggregate ?crypto agg operand)) in
    match (agg.Aggregate.func, operand) with
    | Aggregate.Count_star, _ | Aggregate.Count _, None ->
        per_group ng (fun a -> Column.Ints a) (Array.get sizes)
    | Aggregate.Count a, Some c ->
        (* the live cells per group; a group holding a ciphertext cell
           gets its count encrypted under the operand's cluster, the
           groups' counts in one batch *)
        let live, encrypted =
          match c with
          | Column.Values _ | Column.Sealed { Column.plain = Column.Values _; _ } ->
              let live = Array.make ng 0 and encrypted = Array.make ng false in
              for i = 0 to n - 1 do
                if not (Column.is_null c i) then begin
                  let g = gid.(i) in
                  live.(g) <- live.(g) + 1;
                  if Column.is_encrypted c i then encrypted.(g) <- true
                end
              done;
              (live, encrypted)
          | Column.Sealed _ -> (sizes, Array.make ng true)
          | _ -> (sizes, Array.make ng false)
        in
        let out = Array.map (fun k -> Value.Int k) live in
        let enc = List.filter (Array.get encrypted) (List.init ng Fun.id) |> Array.of_list in
        if Array.length enc > 0 then begin
          (* a count is a small int, which every scheme encrypts: only
             the context or the operand's cluster can fail, and then at
             the first encrypted group *)
          let cells =
            at enc.(0) (fun () ->
                match crypto with
                | Some ctx ->
                    Enc_exec.encrypt_each ctx a ~rng:(fun k -> rng enc.(k)) (Array.map (Array.get out) enc)
                | None -> err "encrypted count requires a crypto context")
          in
          Array.iteri (fun k g -> out.(g) <- cells.(k)) enc
        end;
        Column.of_values out
    | Aggregate.Sum _, Some (Column.Ints a) ->
        let sums = Array.make ng 0 in
        Array.iteri (fun i x -> let g = gid.(i) in sums.(g) <- sums.(g) + x) a;
        per_group ng (fun a -> Column.Ints a) (Array.get sums)
    | (Aggregate.Sum _ | Aggregate.Avg _), Some c -> (
        match float_sums c gid ng with
        | Some sums ->
            let avg = match agg.Aggregate.func with Aggregate.Avg _ -> true | _ -> false in
            per_group ng
              (fun a -> Column.Floats a)
              (fun g -> if avg then sums.(g) /. float_of_int sizes.(g) else sums.(g))
        | None -> folded ())
    | (Aggregate.Min _ | Aggregate.Max _), Some c -> (
        let order = match agg.Aggregate.func with Aggregate.Min _ -> -1 | _ -> 1 in
        match (typed_order c, c) with
        | _ when ng = 0 -> Column.of_values [||]
        | Some cmp, _ ->
            (* the first row no later row beats, as the fold keeps it; a
               comparison that raises (OPE strings tied on their prefix)
               fails its group, -2, and the first such group is the
               fold's *)
            let best = Array.make ng (-1) and failed = ref None in
            for i = 0 to n - 1 do
              let g = gid.(i) in
              let b = best.(g) in
              if b = -1 then best.(g) <- i
              else if b >= 0 then
                match cmp i b * order < 0 with
                | true -> best.(g) <- i
                | false -> ()
                | exception e when row_error e -> (
                    best.(g) <- -2;
                    match !failed with
                    | Some (g', _) when g' < g -> ()
                    | _ -> failed := Some (g, e))
            done;
            Option.iter (fun (g, e) -> raise (At (g, e))) !failed;
            Column.gather c best
        | None, Column.Sealed s -> Column.gather c (fold_groups (sealed_extreme agg s))
        | None, _ -> folded ())
    | _ -> folded ()
  in
  (* the group-at-a-time fold runs group after group, each group's
     aggregates in order: it raises the first failing group's first
     failing aggregate's error *)
  let results =
    List.map (fun op -> match kernel op with c -> Ok c | exception At (g, e) -> Error (g, e)) agg_ops
  in
  let failures = List.filter_map (function Error f -> Some f | Ok _ -> None) results in
  (match List.stable_sort (fun (g, _) (g', _) -> Int.compare g g') failures with
   | (_, e) :: _ -> raise e
   | [] -> ());
  Table.of_columns ~nrows:ng
    (key_attrs @ List.map (fun ((a : Aggregate.t), _) -> a.Aggregate.output) agg_ops)
    (Array.of_list (List.map (fun c -> Column.gather c firsts) key_cols @ List.map Result.get_ok results))

let udf_apply ctx name inputs output table =
  let f =
    match List.assoc_opt name ctx.udfs with
    | Some f -> f
    | None -> err "unregistered udf %s" name
  in
  let input_cols = List.map (Table.column table) (Attr.Set.elements inputs) in
  let dropped = Attr.Set.remove output inputs in
  let out_attrs =
    List.filter (fun a -> not (Attr.Set.mem a dropped)) (Table.attrs table)
  in
  let out_pos =
    match List.find_index (Attr.equal output) out_attrs with
    | Some p -> p
    | None -> err "udf output %s missing" (Attr.name output)
  in
  let n = Table.cardinality table in
  let results =
    Column.of_values
      (Array.init n (fun i -> f (List.map (fun c -> Column.get c i) input_cols)))
  in
  Table.replace (Table.select_columns table out_attrs) [ (out_pos, results) ]

let cell_compare c i j =
  match c with
  | Column.Ints a | Column.Dates a -> Int.compare a.(i) a.(j)
  | Column.Floats a -> Float.compare a.(i) a.(j)
  | Column.Strs a -> String.compare a.(i) a.(j)
  | Column.Bools a -> Bool.compare a.(i) a.(j)
  | Column.Sealed s when String.equal s.Column.scheme "ope" -> (
      (* Nulls first, as [Value.compare] puts them *)
      match (Column.is_null s.Column.plain i, Column.is_null s.Column.plain j) with
      | true, true -> 0
      | true, false -> -1
      | false, true -> 1
      | false, false -> Enc_exec.sealed_order s i s j)
  | Column.Values _ | Column.Sealed _ -> (
      match (Column.get c i, Column.get c j) with
      | Value.Enc c1, Value.Enc c2 ->
          if c1.Value.scheme = "ope" && c2.Value.scheme = "ope" then
            (* order lives in the OPE prefix only; comparing whole
               payloads would order tied-prefix strings by their
               non-order-preserving det tails *)
            Enc_exec.ope_compare c1 c2
          else String.compare c1.Value.payload c2.Value.payload
      | v1, v2 -> (
          try Value.compare v1 v2
          with Value.Incomparable _ -> err "order_by over incomparable values"))

(* A stable sort of the row permutation by the key list. A sealed det
   or rnd key orders by its payload bytes, so it is materialized once,
   at its first comparison; the output keeps the sealed column. *)
let order_by table keys =
  let keys =
    List.map
      (fun (a, d) ->
        match Table.column table a with
        | Column.Sealed s as c when not (String.equal s.Column.scheme "ope") ->
            (lazy (Column.Values (Column.to_values c)), d)
        | c -> (Lazy.from_val c, d))
      keys
  in
  let cmp i j =
    let rec go = function
      | [] -> 0
      | (c, d) :: rest ->
          let s = cell_compare (Lazy.force c) i j in
          let s = match d with Plan.Asc -> s | Plan.Desc -> -s in
          if s <> 0 then s else go rest
    in
    go keys
  in
  let n = Table.cardinality table in
  let sorted = List.stable_sort cmp (List.init n Fun.id) in
  Scratch.frame @@ fun () ->
  let perm = Scratch.ints n in
  List.iteri (fun k i -> perm.(k) <- i) sorted;
  Table.gather ~len:n table perm

let limit table n =
  if n < 0 || n >= Table.cardinality table then table else Table.sub table 0 n

let operator_tag plan =
  match Plan.node plan with
  | Plan.Base _ -> "base"
  | _ -> Plan.operator_name plan

(* An operator's span and timer names, built only while tracing is on:
   [Obs] ignores a name then. *)
let obs_names plan =
  if Obs.enabled () then
    let tag = operator_tag plan in
    ("exec." ^ tag, "exec.op_s." ^ tag)
  else ("", "")

(* Sub-plan result memoization hooks (multi-query work sharing).
   [lookup] may satisfy a whole subtree from a previous execution —
   sound only when the caller's key covers everything the subtree's
   bytes depend on (structure, preorder position when ciphertext is
   produced inside, key clusters, environment; see Serve.Service);
   [store] is offered every computed subtree, as a function that
   materializes it, so only the tables a memo keeps pay for their view
   columns' gathers. Both run on the executing domain, but
   Serve.Service's pool runs several executions at once, so state
   shared between memos must be synchronized. *)
type subplan_memo = {
  lookup : pos:int -> Plan.t -> Table.t option;
  store : pos:int -> Plan.t -> (unit -> Table.t) -> unit;
}

(* Operators hand each other tables with index views (Table.gather);
   what leaves the executor — the result, a table the memo keeps, a
   table the hook sees — is materialized first. *)
let execute ?memo ?hook ctx plan =
  (* [hook] sees each node's table as soon as it exists, in post-order
     (left subtree, right subtree, node); a raising hook stops the plan
     there. A memo hit reports only its root (the subtree was not
     executed here), so hook consumers are not combined with [?memo] —
     the serving layer, which uses the memo, runs hook-free. *)
  (* Encryption randomness is rooted per plan node (see
     [encrypt_columns]), but raw node ids come from a global counter:
     two structurally identical plans built at different times carry
     different ids. Executions must be reproducible from plan
     {e structure} — a re-planned copy of a cached query has to produce
     the same ciphertext bytes — so the rng label is the node's
     preorder position within the executing plan, not its allocation
     id. Positions are threaded through the traversal itself (not read
     off an id-keyed table): on a hash-consed DAG a node reachable from
     two parents occupies two positions, and an id lookup would give
     both occurrences the {e same} label — the last (previously) or
     first (now) visit's — diverging from the tree-planned oracle's
     ciphertext bytes (regression: test_dag.ml). *)
  let rec go pos plan =
    let result =
      match Option.bind memo (fun m -> m.lookup ~pos plan) with
      | Some t -> t
      | None -> compute pos plan
    in
    Option.iter (fun hook -> hook plan (Table.materialize result)) hook;
    result
  and compute pos plan =
    let span, timer = obs_names plan in
    let result =
      Obs.with_span span @@ fun () ->
      (* flat per-operator timer (child recursion excluded), so the
         bench can report a per-operator breakdown without untangling
         the span tree *)
      let op f = Obs.time timer f in
      try
        match Plan.node plan with
        | Plan.Base s -> op (fun () -> base ctx ~node:pos s)
        | Plan.Project (attrs, c) ->
            let t = go (pos + 1) c in
            op (fun () -> project t attrs)
        | Plan.Select (pred, c) ->
            let t = go (pos + 1) c in
            op (fun () -> select ?crypto:ctx.crypto t pred)
        | Plan.Product (l, r) ->
            let tl, tr = sides pos l r in
            op (fun () -> product tl tr)
        | Plan.Join (pred, l, r) ->
            let tl, tr = sides pos l r in
            op (fun () -> join ?crypto:ctx.crypto pred tl tr)
        | Plan.Group_by (keys, aggs, c) ->
            let t = go (pos + 1) c in
            op (fun () -> group_by ?crypto:ctx.crypto ~node:pos t keys aggs)
        | Plan.Udf (name, inputs, output, c) ->
            let t = go (pos + 1) c in
            op (fun () -> udf_apply ctx name inputs output t)
        | Plan.Order_by (keys, c) ->
            let t = go (pos + 1) c in
            op (fun () -> order_by t keys)
        | Plan.Limit (n, c) ->
            let t = go (pos + 1) c in
            op (fun () -> limit t n)
        | Plan.Encrypt (attrs, c) ->
            let t = go (pos + 1) c in
            op (fun () -> crypt ctx ~encrypt:true ~node:pos attrs t)
        | Plan.Decrypt (attrs, c) ->
            let t = go (pos + 1) c in
            op (fun () -> crypt ctx ~encrypt:false ~node:pos attrs t)
      with Table.Unknown_attribute { attr; columns } ->
        err "%s: unknown attribute %s (table columns: %s)" (operator_tag plan)
          attr
          (String.concat ", " columns)
    in
    if Obs.enabled () then begin
      Obs.incr "exec.operators";
      Obs.incr ~by:(Table.cardinality result) "exec.rows_out"
    end;
    Option.iter (fun m -> m.store ~pos plan (fun () -> Table.materialize result)) memo;
    result
  and sides pos l r =
    let tl = go (pos + 1) l in
    (tl, go (pos + 1 + Plan.size l) r)
  in
  Table.materialize (go 0 plan)

let run_with_hook ?memo ctx ~hook plan = execute ?memo ~hook ctx plan
let run ?memo ctx plan = execute ?memo ctx plan
