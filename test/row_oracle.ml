(* Row-at-a-time reference executor: the relational operators as the
   engine ran them before it went column-native, kept test-local as the
   differential oracle for [Engine.Exec]. A relation is a list of
   [Value.t] row arrays; every operator runs sequentially in one pass
   over it. Crypto nodes use the engine's own batch kernels over one
   whole-table range for phe bytes and for the errors, so ciphertext
   comes from the same (plan position, row index) randomness; det, OPE
   and rnd, which the engine seals and encrypts only when read, the
   oracle encrypts eagerly, a row at a time. Join matches come out in
   the order [Hashtbl.find_all] gives (most recent binding first, i.e.
   descending right row); groups in first-appearance order. *)

open Relalg
open Engine
module C = Mpq_crypto

type rel = { attrs : Attr.t list; index : int Attr.Map.t; rows : Value.t array list }

let make attrs rows =
  let index =
    List.fold_left
      (fun (i, m) a -> (i + 1, Attr.Map.add a i m))
      (0, Attr.Map.empty) attrs
    |> snd
  in
  { attrs; index; rows }

let col_index t a =
  match Attr.Map.find_opt a t.index with
  | Some i -> i
  | None ->
      raise
        (Table.Unknown_attribute
           { attr = Attr.name a; columns = List.map Attr.name t.attrs })

let err fmt = Format.kasprintf (fun s -> raise (Exec.Exec_error s)) fmt

(* Equality-compatible hash key. Below 2^53 every integer-valued float is
   exactly one int, so equal Int and Float share "N<i>"; above it an Int
   keys through its float image, as [Value.equal] compares it. *)
let exact_int_float = 9007199254740992.0

let float_key f =
  if Float.is_integer f && Float.abs f < exact_int_float then
    Printf.sprintf "N%d" (int_of_float f)
  else Printf.sprintf "F%h" f

(* A group-by keys a ciphertext by its payload. A join keys an OPE
   ciphertext as its predicate compares it: numeric images tied at cent
   precision are equal whatever their tag byte and det tail, so a
   number keys by its type class and 7-byte order prefix. *)
let hash_key ~join = function
  | Value.Enc { Value.scheme = "ope"; key_id; payload }
    when join && String.length payload > 7 && String.contains "ifdb" payload.[7] ->
      let cls = match payload.[7] with 'i' | 'f' -> 'N' | t -> t in
      Printf.sprintf "Eope/%s/%c%s" key_id cls (String.sub payload 0 7)
  | Value.Enc c -> Printf.sprintf "E%s/%s/%s" c.Value.scheme c.Value.key_id c.Value.payload
  | Value.Int i ->
      if Float.abs (float_of_int i) < exact_int_float then Printf.sprintf "N%d" i
      else float_key (float_of_int i)
  | Value.Float f -> float_key f
  | Value.Str s -> "S" ^ s
  | Value.Date d -> Printf.sprintf "D%d" d
  | Value.Bool b -> if b then "B1" else "B0"
  | Value.Null -> "_"

(* --- predicates over rows --------------------------------------------- *)

let atom ?ctx t row a =
  let get attr = row.(col_index t attr) in
  match a with
  | Predicate.Cmp_const (attr, op, v) -> Eval.compare_values ?ctx op (get attr) v
  | Predicate.Cmp_attr (x, op, y) -> Eval.compare_values ?ctx op (get x) (get y)
  | Predicate.In_list (attr, vs) ->
      List.exists (fun v -> Eval.compare_values ?ctx Predicate.Eq (get attr) v) vs
  | Predicate.Like (attr, pattern) -> (
      match get attr with
      | Value.Str s -> Predicate.like_matches ~pattern s
      | Value.Null -> false
      | Value.Enc _ -> raise (Eval.Eval_error "LIKE requires plaintext")
      | v ->
          raise (Eval.Eval_error ("LIKE over non-string " ^ Value.to_string v)))

let predicate ?ctx t row p =
  List.for_all (fun clause -> List.exists (atom ?ctx t row) clause) p

(* --- crypto through the column kernels, one whole-table batch --------- *)

let to_columns t =
  let arr = Array.of_list t.rows in
  Array.init (List.length t.attrs) (fun j ->
      Column.of_values (Array.map (fun r -> r.(j)) arr))

let of_columns attrs n cols =
  make attrs (List.init n (fun i -> Array.map (fun c -> Column.get c i) cols))

(* The batch kernels encrypt phe (and raise the errors); det, OPE and
   rnd cells are then encrypted eagerly, by the contract
   [encrypt_batch] states: row [k]'s generator [Prng.derive root k] is
   consumed across the encrypted attributes in attribute order, the phe
   cells drawing their Paillier units, Null cells drawing nothing. det
   and OPE draw nothing and are deterministic under their key, so a
   table local to the call keeps each distinct serialized cell's
   ciphertext. *)
let encrypt crypto ~node attrs t =
  let enc_attrs = Attr.Set.elements attrs in
  let enc_idx = List.map (col_index t) enc_attrs in
  let cols = to_columns t in
  let n = List.length t.rows in
  if n > 0 then begin
    let root = Enc_exec.node_rng crypto node in
    let out =
      Enc_exec.encrypt_batch crypto ~rng_root:root
        ~enc:(List.map2 (fun a i -> (a, cols.(i))) enc_attrs enc_idx)
    in
    let known = Hashtbl.create 64 in
    let encrypt rng a v =
      match Enc_exec.scheme_of crypto a with
      | C.Scheme.Rnd | C.Scheme.Phe -> Enc_exec.encrypt_value ~rng crypto a v
      | C.Scheme.Det | C.Scheme.Ope -> (
          let key = (Attr.name a, Enc_exec.serialize v) in
          match Hashtbl.find_opt known key with
          | Some c -> c
          | None ->
              let c = Enc_exec.encrypt_value ~rng crypto a v in
              Hashtbl.add known key c;
              c)
    in
    let eager =
      List.mapi
        (fun k row ->
          let rng = C.Prng.derive root k in
          List.map (fun (a, i) -> encrypt rng a row.(i)) (List.combine enc_attrs enc_idx))
        t.rows
    in
    List.iteri
      (fun j ((a, i), c) ->
        cols.(i) <-
          (match Enc_exec.scheme_of crypto a with
          | C.Scheme.Phe -> c
          | C.Scheme.Det | C.Scheme.Ope | C.Scheme.Rnd ->
              Column.Values (Array.of_list (List.map (fun r -> List.nth r j) eager))))
      (List.combine (List.combine enc_attrs enc_idx) out)
  end;
  of_columns t.attrs n cols

let decrypt crypto attrs t =
  let idx = List.map (col_index t) (Attr.Set.elements attrs) in
  let cols = to_columns t in
  let n = List.length t.rows in
  if n > 0 then
    List.iter (fun i -> cols.(i) <- Enc_exec.decrypt_batch crypto cols.(i)) idx;
  of_columns t.attrs n cols

let with_crypto (ctx : Exec.context) f =
  match ctx.Exec.crypto with
  | None -> err "plan contains crypto operators but no crypto context given"
  | Some crypto -> f crypto

(* --- row operators ----------------------------------------------------- *)

let select_columns t cols =
  let idx = List.map (col_index t) cols in
  make cols (List.map (fun r -> Array.of_list (List.map (fun i -> r.(i)) idx)) t.rows)

let base (ctx : Exec.context) ~node s =
  match List.assoc_opt s.Schema.name ctx.Exec.tables with
  | None -> err "unknown base relation %s" s.Schema.name
  | Some stored ->
      let t =
        select_columns (make (Table.attrs stored) (Table.rows stored))
          (Schema.attr_list s)
      in
      let enc = Schema.stored_encrypted s in
      if Attr.Set.is_empty enc then t
      else
        match ctx.Exec.crypto with
        | None -> err "outsourced relation %s needs a crypto context" s.Schema.name
        | Some crypto -> encrypt crypto ~node enc t

let select ?crypto t pred =
  make t.attrs (List.filter (fun r -> predicate ?ctx:crypto t r pred) t.rows)

let product l r =
  make (l.attrs @ r.attrs)
    (List.concat_map (fun rl -> List.map (fun rr -> Array.append rl rr) r.rows) l.rows)

let equi_pairs pred l r =
  let conjunctive = List.for_all (fun c -> List.length c = 1) pred in
  if not conjunctive then []
  else
    let la = Attr.Set.of_list l.attrs and ra = Attr.Set.of_list r.attrs in
    List.filter_map
      (function
        | [ Predicate.Cmp_attr (a, Predicate.Eq, b) ]
          when Attr.Set.mem a la && Attr.Set.mem b ra -> Some (a, b)
        | [ Predicate.Cmp_attr (a, Predicate.Eq, b) ]
          when Attr.Set.mem b la && Attr.Set.mem a ra -> Some (b, a)
        | _ -> None)
      pred

(* Multi-column keys length-prefix each cell's key, so a cell's bytes
   never shift a boundary between cells. *)
let row_key ~join idxs row =
  String.concat ""
    (List.map
       (fun i ->
         let k = hash_key ~join row.(i) in
         string_of_int (String.length k) ^ ":" ^ k)
       idxs)

(* A key pair where one side holds ciphertext and the other plaintext
   cannot bucket: the predicate encrypts the plaintext to compare them,
   which the keys do not mirror. Such pairs are left to the recheck. *)
let bucketable l r (a, b) =
  let kinds t i =
    ( List.exists (fun row -> Value.is_encrypted row.(i)) t.rows,
      List.exists
        (fun row -> not (Value.is_null row.(i) || Value.is_encrypted row.(i)))
        t.rows )
  in
  let l_enc, l_plain = kinds l (col_index l a)
  and r_enc, r_plain = kinds r (col_index r b) in
  not ((l_enc && r_plain) || (l_plain && r_enc))

let join ?crypto pred l r =
  let attrs = l.attrs @ r.attrs in
  let header = make attrs [] in
  let keep combined = predicate ?ctx:crypto header combined pred in
  let matches rl rrs =
    List.filter_map
      (fun rr ->
        let combined = Array.append rl rr in
        if keep combined then Some combined else None)
      rrs
  in
  let rows =
    match List.filter (bucketable l r) (equi_pairs pred l r) with
    | [] -> List.concat_map (fun rl -> matches rl r.rows) l.rows
    | pairs ->
        let lk = List.map (fun (a, _) -> col_index l a) pairs in
        let rk = List.map (fun (_, b) -> col_index r b) pairs in
        let key = row_key ~join:true in
        let has_null idxs row = List.exists (fun i -> Value.is_null row.(i)) idxs in
        let index = Hashtbl.create 64 in
        List.iter
          (fun rr -> if not (has_null rk rr) then Hashtbl.add index (key rk rr) rr)
          r.rows;
        List.concat_map
          (fun rl ->
            if has_null lk rl then []
            else matches rl (Hashtbl.find_all index (key lk rl)))
          l.rows
  in
  make attrs rows

let numeric v =
  match Value.to_float v with
  | Some f -> f
  | None -> err "aggregate over non-numeric %s" (Value.to_string v)

let aggregate ?crypto ?rng (agg : Aggregate.t) values =
  let non_null = List.filter (fun v -> not (Value.is_null v)) values in
  let encrypted = List.exists Value.is_encrypted non_null in
  let need_crypto what f =
    match crypto with Some c -> f c | None -> err "encrypted %s requires a crypto context" what
  in
  match agg.Aggregate.func with
  | Aggregate.Count_star -> Value.Int (List.length values)
  | Aggregate.Count a when encrypted ->
      need_crypto "count" (fun c ->
          Enc_exec.encrypt_value ?rng c a (Value.Int (List.length non_null)))
  | Aggregate.Count _ -> Value.Int (List.length non_null)
  | Aggregate.Sum _ when encrypted ->
      need_crypto "sum" (fun c -> Enc_exec.phe_sum c non_null ~avg:false)
  | Aggregate.Avg _ when encrypted ->
      need_crypto "avg" (fun c -> Enc_exec.phe_sum c non_null ~avg:true)
  | Aggregate.Sum _ ->
      if non_null = [] then Value.Null
      else if List.for_all (function Value.Int _ -> true | _ -> false) non_null
      then
        Value.Int
          (List.fold_left
             (fun acc v -> acc + match v with Value.Int i -> i | _ -> 0)
             0 non_null)
      else Value.Float (List.fold_left (fun acc v -> acc +. numeric v) 0.0 non_null)
  | Aggregate.Avg _ ->
      if non_null = [] then Value.Null
      else
        Value.Float
          (List.fold_left (fun acc v -> acc +. numeric v) 0.0 non_null
          /. float_of_int (List.length non_null))
  | Aggregate.Min _ | Aggregate.Max _ -> (
      let order = match agg.Aggregate.func with Aggregate.Min _ -> -1 | _ -> 1 in
      let better a b =
        match (a, b) with
        | Value.Enc ca, Value.Enc cb
          when ca.Value.scheme = "ope" && cb.Value.scheme = "ope" ->
            Enc_exec.ope_compare ca cb * order < 0
        | Value.Enc _, _ | _, Value.Enc _ -> err "min/max over non-OPE ciphertext"
        | _ -> ( try Value.compare a b * order < 0 with Value.Incomparable _ -> false)
      in
      match non_null with
      | [] -> Value.Null
      | first :: rest ->
          List.fold_left (fun best v -> if better v best then v else best) first rest)

let group_by ?crypto ~node t keys aggs =
  let key_attrs = Attr.Set.elements keys in
  let key_idx = List.map (col_index t) key_attrs in
  let row_key = row_key ~join:false key_idx in
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun row ->
      let k = row_key row in
      match Hashtbl.find_opt tbl k with
      | Some rs -> Hashtbl.replace tbl k (row :: rs)
      | None ->
          Hashtbl.add tbl k [ row ];
          order := k :: !order)
    t.rows;
  let groups = List.rev_map (fun k -> List.rev (Hashtbl.find tbl k)) !order in
  let agg_ops =
    List.filter_map
      (fun (agg : Aggregate.t) ->
        if Attr.Set.mem agg.Aggregate.output keys then None
        else Some (agg, Option.map (col_index t) (Aggregate.operand agg)))
      aggs
  in
  let nrng = Option.map (fun c -> Enc_exec.node_rng c node) crypto in
  let emit j rows =
    let first = List.hd rows in
    let rng = Option.map (fun r -> C.Prng.derive r j) nrng in
    let key_vals = List.map (fun i -> first.(i)) key_idx in
    let agg_vals =
      List.map
        (fun ((agg : Aggregate.t), operand) ->
          aggregate ?crypto ?rng agg
            (match operand with
            | Some i -> List.map (fun r -> r.(i)) rows
            | None -> List.map (fun _ -> Value.Null) rows))
        agg_ops
    in
    Array.of_list (key_vals @ agg_vals)
  in
  make
    (key_attrs @ List.map (fun ((a : Aggregate.t), _) -> a.Aggregate.output) agg_ops)
    (List.mapi emit groups)

let udf_apply (ctx : Exec.context) name inputs output t =
  let f =
    match List.assoc_opt name ctx.Exec.udfs with
    | Some f -> f
    | None -> err "unregistered udf %s" name
  in
  let input_idx = List.map (col_index t) (Attr.Set.elements inputs) in
  let dropped = Attr.Set.remove output inputs in
  let out_attrs = List.filter (fun a -> not (Attr.Set.mem a dropped)) t.attrs in
  let out_pos = List.map (col_index t) out_attrs in
  let out_index =
    let rec find i = function
      | [] -> err "udf output %s missing" (Attr.name output)
      | a :: _ when Attr.equal a output -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 out_attrs
  in
  make out_attrs
    (List.map
       (fun row ->
         let result = f (List.map (fun i -> row.(i)) input_idx) in
         let out = Array.of_list (List.map (fun i -> row.(i)) out_pos) in
         out.(out_index) <- result;
         out)
       t.rows)

let order_by t keys =
  let idx = List.map (fun (a, d) -> (col_index t a, d)) keys in
  let cmp r1 r2 =
    let rec go = function
      | [] -> 0
      | (i, d) :: rest ->
          let c =
            match (r1.(i), r2.(i)) with
            | Value.Enc c1, Value.Enc c2 ->
                if c1.Value.scheme = "ope" && c2.Value.scheme = "ope" then
                  Enc_exec.ope_compare c1 c2
                else String.compare c1.Value.payload c2.Value.payload
            | v1, v2 -> (
                try Value.compare v1 v2
                with Value.Incomparable _ -> err "order_by over incomparable values")
          in
          let c = match d with Plan.Asc -> c | Plan.Desc -> -c in
          if c <> 0 then c else go rest
    in
    go idx
  in
  make t.attrs (List.stable_sort cmp t.rows)

let limit t n = make t.attrs (List.filteri (fun i _ -> n < 0 || i < n) t.rows)

let operator_tag plan =
  match Plan.node plan with Plan.Base _ -> "base" | _ -> Plan.operator_name plan

(* [run ctx plan]: the same preorder positions as [Exec.run] (they root
   the encryption randomness) and the same [Exec_error] wrapping of
   unknown attributes. [hook] sees each node's table in the post-order
   [Exec.run_with_hook] reports them. *)
let run ?hook (ctx : Exec.context) plan =
  let crypto = ctx.Exec.crypto in
  let rec go pos plan =
    let t = node pos plan in
    Option.iter (fun h -> h plan (Table.create t.attrs t.rows)) hook;
    t
  and node pos plan =
    let child () = go (pos + 1) (List.hd (Plan.children plan)) in
    let sides l = (go (pos + 1) l, go (pos + 1 + Plan.size l)) in
    try
      match Plan.node plan with
      | Plan.Base s -> base ctx ~node:pos s
      | Plan.Project (attrs, _) ->
          let t = child () in
          select_columns t (Attr.Set.elements attrs)
      | Plan.Select (pred, _) -> select ?crypto (child ()) pred
      | Plan.Product (l, r) ->
          let tl, gr = sides l in
          product tl (gr r)
      | Plan.Join (pred, l, r) ->
          let tl, gr = sides l in
          join ?crypto pred tl (gr r)
      | Plan.Group_by (keys, aggs, _) -> group_by ?crypto ~node:pos (child ()) keys aggs
      | Plan.Udf (name, inputs, output, _) -> udf_apply ctx name inputs output (child ())
      | Plan.Order_by (keys, _) -> order_by (child ()) keys
      | Plan.Limit (n, _) -> limit (child ()) n
      | Plan.Encrypt (attrs, _) ->
          let t = child () in
          with_crypto ctx (fun c -> encrypt c ~node:pos attrs t)
      | Plan.Decrypt (attrs, _) ->
          let t = child () in
          with_crypto ctx (fun c -> decrypt c attrs t)
    with Table.Unknown_attribute { attr; columns } ->
      err "%s: unknown attribute %s (table columns: %s)" (operator_tag plan) attr
        (String.concat ", " columns)
  in
  let t = go 0 plan in
  Table.create t.attrs t.rows
