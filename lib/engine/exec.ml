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

(* --- per-column encryption (stored relations, Encrypt/Decrypt) ------- *)

(* Columnar batch encryption. Randomness is rooted per (plan node, row
   index), so ciphertext bytes depend on the row's position, never on
   evaluation order. Untouched columns are shared, not copied. *)
let encrypt_columns crypto ~node attrs table =
  let enc_attrs = Attr.Set.elements attrs in
  let enc_idx = List.map (Table.col_index table) enc_attrs in
  let cols = Table.columns table in
  let encrypted =
    Enc_exec.encrypt_batch crypto ~rng_root:(Enc_exec.node_rng crypto node)
      ~enc:(List.map2 (fun a i -> (a, cols.(i))) enc_attrs enc_idx)
  in
  let out = Array.copy cols in
  List.iter2 (fun i c -> out.(i) <- c) enc_idx encrypted;
  Table.of_columns ~nrows:(Table.cardinality table) (Table.attrs table) out

let decrypt_columns crypto attrs table =
  let cols = Table.columns table in
  let out = Array.copy cols in
  List.iter
    (fun a ->
      let i = Table.col_index table a in
      out.(i) <- Enc_exec.decrypt_batch crypto cols.(i))
    (Attr.Set.elements attrs);
  Table.of_columns ~nrows:(Table.cardinality table) (Table.attrs table) out

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
  let keep =
    Eval.predicate ?ctx:crypto (fun a -> (Table.column table a, Fun.id)) pred
  in
  let n = Table.cardinality table in
  (* the rows that pass [keep], in order *)
  let sel = Array.make n 0 and kept = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      sel.(!kept) <- i;
      incr kept
    end
  done;
  if !kept = n then table else Table.gather table (Array.sub sel 0 !kept)

(* row [k] of the output pairs row [li.(k)] of [l] with row [ri.(k)] of [r] *)
let pair_up l li r ri =
  Table.of_columns ~nrows:(Array.length li)
    (Table.attrs l @ Table.attrs r)
    (Array.append (Table.columns (Table.gather l li))
       (Table.columns (Table.gather r ri)))

let product l r =
  let nr = Table.cardinality r in
  let n = Table.cardinality l * nr in
  pair_up l (Array.init n (fun k -> k / nr)) r (Array.init n (fun k -> k mod nr))

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

let join ?crypto pred l r =
  let pairs = List.filter (bucketable l r) (equi_pairs pred l r) in
  let nr = Table.cardinality r in
  let stride = max nr 1 in
  (* the predicate reads a (left, right) pair packed as [li * stride + rj];
     names resolve as in the concatenated header (a repeated attribute is
     the right side's) *)
  let header = Table.create (Table.attrs l @ Table.attrs r) [] in
  let width = List.length (Table.attrs l) in
  let keep =
    Eval.predicate ?ctx:crypto
      (fun a ->
        let p = Table.col_index header a in
        if p < width then ((Table.columns l).(p), fun x -> x / stride)
        else ((Table.columns r).(p - width), fun x -> x mod stride))
      pred
  in
  (* [out] collects the matches, newest first *)
  let check out li rj = if keep ((li * stride) + rj) then out := (li, rj) :: !out in
  (* Hash-path matches re-check the whole predicate (equi clauses
     included), so the bucket key only has to be complete — any pair of
     rows equal on the keys must share a bucket — never collision-free.
     Rechecking keeps the hash path bit-identical to the nested loop even
     where the key encoding collapses distinct values. A bucket lists its
     right rows in descending order, the order [Hashtbl.find_all] gave
     the row executor. *)
  let probe =
    match pairs with
    | [] -> fun out li -> for rj = 0 to nr - 1 do check out li rj done
    | _ -> (
        let lk = List.map (fun (a, _) -> Table.column l a) pairs in
        let rk = List.map (fun (_, b) -> Table.column r b) pairs in
        let buckets lkey rkey =
          let index = Hashtbl.create (nr + 1) in
          for rj = 0 to nr - 1 do
            Option.iter
              (fun k ->
                match Hashtbl.find_opt index k with
                | Some js -> js := rj :: !js
                | None -> Hashtbl.add index k (ref [ rj ]))
              (rkey rj)
          done;
          fun out li ->
            match Option.bind (lkey li) (Hashtbl.find_opt index) with
            | Some js -> List.iter (check out li) !js
            | None -> ()
        in
        (* one typed int key per side, every value below 2^53: the int
           itself partitions rows exactly as its key string would; so
           does the int that identifies a typed sealed cell *)
        let exact = Array.for_all (fun x -> Float.abs (float_of_int x) < exact_int_float) in
        let sealed_ints =
          match (lk, rk) with
          | [ Column.Sealed sl ], [ Column.Sealed sr ] -> Enc_exec.sealed_int_keys sl sr
          | _ -> None
        in
        match (lk, rk, sealed_ints) with
        | [ Column.Ints la ], [ Column.Ints ra ], _ when exact la && exact ra ->
            buckets (fun i -> Some la.(i)) (fun j -> Some ra.(j))
        | _, _, Some (lkey, rkey) ->
            buckets (fun i -> Some (lkey i)) (fun j -> Some (rkey j))
        | _ ->
            (* A sealed key meeting a boxed column is materialized: the
               boxed side may hold ciphertext, which only its payload
               keys. A row with a Null key matches nothing. *)
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
            let key cols i =
              if null_at cols i then None else Some (row_key ~join:true cols i)
            in
            buckets (key lk) (key rk))
  in
  let matches =
    let out = ref [] in
    for li = 0 to Table.cardinality l - 1 do
      probe out li
    done;
    Array.of_list (List.rev !out)
  in
  pair_up l (Array.map fst matches) r (Array.map snd matches)

(* --- aggregation ----------------------------------------------------- *)

let numeric v =
  match Value.to_float v with
  | Some f -> f
  | None -> err "aggregate over non-numeric %s" (Value.to_string v)

let all_ints vs = List.for_all (function Value.Int _ -> true | _ -> false) vs

(* [aggregate agg operand rows] folds [agg] over the operand's cells at
   [rows], in order. Count reads only their null-ness and encryptedness,
   so it never produces a sealed operand's bytes. *)
let aggregate ?crypto ?rng (agg : Aggregate.t) operand rows =
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
  | Aggregate.Count_star -> Value.Int (List.length rows)
  | Aggregate.Count a when encrypted ->
      (* the output keeps the operand's (encrypted) profile entry: wrap
         the count under the operand's cluster so data matches profile *)
      with_crypto "count" (fun c ->
          Enc_exec.encrypt_value ?rng c a (Value.Int (List.length live)))
  | Aggregate.Count _ -> Value.Int (List.length live)
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

let group_by ?crypto ~node table keys aggs =
  let key_attrs = Attr.Set.elements keys in
  let key_cols = List.map (Table.column table) key_attrs in
  (* phase 1 — the rows of each group, groups in first-appearance order
     and each group's rows in input order, as one sequential pass would
     find them *)
  let groups =
    let tbl = Hashtbl.create 64 and order = ref [] in
    for i = 0 to Table.cardinality table - 1 do
      let k = row_key ~join:false key_cols i in
      match Hashtbl.find_opt tbl k with
      | Some rows -> rows := i :: !rows
      | None ->
          let rows = ref [ i ] in
          Hashtbl.add tbl k rows;
          order := rows :: !order
    done;
    Array.of_list (List.rev_map (fun rows -> Array.of_list (List.rev !rows)) !order)
  in
  let agg_ops =
    List.filter_map
      (fun (agg : Aggregate.t) ->
        if Attr.Set.mem agg.Aggregate.output keys then None
        else Some (agg, Option.map (Table.column table) (Aggregate.operand agg)))
      aggs
  in
  let nrng = Option.map (fun c -> Enc_exec.node_rng c node) crypto in
  (* phase 2 — one output row per group. Aggregates run over each
     group's complete row list in input order, which fixes the float
     accumulation order; group [j]'s randomness is derived from [j]. *)
  let agg_row j =
    let rng = Option.map (fun r -> C.Prng.derive r j) nrng in
    let rows = Array.to_list groups.(j) in
    List.map
      (fun ((agg : Aggregate.t), operand) ->
        match (agg.Aggregate.func, operand) with
        | (Aggregate.Min _ | Aggregate.Max _), Some (Column.Sealed s) ->
            Either.Right (sealed_extreme agg s rows)
        | _ -> Either.Left (aggregate ?crypto ?rng agg operand rows))
      agg_ops
  in
  let ngroups = Array.length groups in
  let agg_rows = Array.init ngroups agg_row in
  let firsts = Array.map (fun rows -> rows.(0)) groups in
  (* a value per group, or the operand's rows that a sealed min/max
     picked *)
  let agg_column k (_, operand) =
    let cells = Array.map (fun row -> List.nth row k) agg_rows in
    match operand with
    | Some c when ngroups > 0 && Array.for_all Either.is_right cells ->
        Column.gather c (Array.map (Either.fold ~left:(fun _ -> 0) ~right:Fun.id) cells)
    | _ ->
        Column.of_values
          (Array.map (Either.fold ~left:Fun.id ~right:(fun _ -> Value.Null)) cells)
  in
  Table.of_columns ~nrows:ngroups
    (key_attrs @ List.map (fun ((a : Aggregate.t), _) -> a.Aggregate.output) agg_ops)
    (Array.of_list
       (List.map (fun c -> Column.gather c firsts) key_cols
       @ List.mapi agg_column agg_ops))

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
  Table.of_columns ~nrows:n out_attrs
    (Array.of_list
       (List.mapi
          (fun p a -> if p = out_pos then results else Table.column table a)
          out_attrs))

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
  let sorted = List.stable_sort cmp (List.init (Table.cardinality table) Fun.id) in
  Table.gather table (Array.of_list sorted)

let limit table n =
  if n < 0 || n >= Table.cardinality table then table else Table.sub table 0 n

let operator_tag plan =
  match Plan.node plan with
  | Plan.Base _ -> "base"
  | _ -> Plan.operator_name plan

(* Sub-plan result memoization hooks (multi-query work sharing).
   [lookup] may satisfy a whole subtree from a previous execution —
   sound only when the caller's key covers everything the subtree's
   bytes depend on (structure, preorder position when ciphertext is
   produced inside, key clusters, environment; see Serve.Service);
   [store] observes every computed subtree. Both run on the executing
   domain, but Serve.Service's pool runs several executions at once, so
   state shared between memos must be synchronized. *)
type subplan_memo = {
  lookup : pos:int -> Plan.t -> Table.t option;
  store : pos:int -> Plan.t -> Table.t -> unit;
}

let run_with_hook ?memo ctx ~hook plan =
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
    hook plan result;
    result
  and compute pos plan =
    let result =
      Obs.with_span ("exec." ^ operator_tag plan) @@ fun () ->
      (* flat per-operator timer (child recursion excluded), so the
         bench can report a per-operator breakdown without untangling
         the span tree *)
      let op f = Obs.time ("exec.op_s." ^ operator_tag plan) f in
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
    Option.iter (fun m -> m.store ~pos plan result) memo;
    result
  and sides pos l r =
    let tl = go (pos + 1) l in
    (tl, go (pos + 1 + Plan.size l) r)
  in
  go 0 plan

let run ?memo ctx plan = run_with_hook ?memo ctx ~hook:(fun _ _ -> ()) plan
