open Relalg
module C = Mpq_crypto

exception Crypto_error of string

let err fmt = Format.kasprintf (fun s -> raise (Crypto_error s)) fmt

(* --- keys ---------------------------------------------------------- *)

(* One cluster's scheme keys. Deriving them costs a PRF plus Speck key
   schedules — far too expensive to repeat per value, which is what the
   first row-at-a-time executor did — so a store derives each key once.
   Keys are immutable, so any domain may use them. *)
type key = { det : C.Det.key; rnd : C.Rnd.key; ope : C.Ope.key }

(* Keys are found by their cluster secret, not by cluster id, so a
   store never answers for another seed or another key derivation. *)
type store = {
  keyring : C.Keyring.t;
  by_secret : (string, key) Hashtbl.t;
  lock : Mutex.t; (* guards [by_secret] *)
  pair : (C.Paillier.public * C.Paillier.secret) option Atomic.t;
}

type ctx = {
  store : store;
  clusters : Authz.Plan_keys.cluster list;
  keys : (string, key) Hashtbl.t; (* cluster id -> key; read-only *)
}

let store keyring =
  { keyring; by_secret = Hashtbl.create 16; lock = Mutex.create ();
    pair = Atomic.make None }

let store_key st id =
  let s = C.Keyring.cluster_secret st.keyring id in
  Mutex.protect st.lock @@ fun () ->
  match Hashtbl.find_opt st.by_secret s with
  | Some k -> k
  | None ->
      let k =
        { det = C.Keyring.det_key_of_secret s;
          rnd = C.Keyring.rnd_key_of_secret s;
          ope = C.Keyring.ope_key_of_secret s }
      in
      Hashtbl.add st.by_secret s k;
      Obs.incr "enc_exec.keys.derived";
      k

(* The keyring generates its Paillier pair on first use and keeps it;
   the store remembers whether it has fetched it, so the keygen is
   counted once per store however many executions need the pair. *)
let paillier st =
  match Atomic.get st.pair with
  | Some pair -> pair
  | None ->
      let pair = C.Keyring.paillier st.keyring in
      if Atomic.compare_and_set st.pair None (Some pair) then
        Obs.incr "enc_exec.paillier.keygens";
      pair

let of_store st clusters =
  let keys = Hashtbl.create (List.length clusters + 1) in
  List.iter
    (fun (c : Authz.Plan_keys.cluster) ->
      let id = c.Authz.Plan_keys.id in
      if not (Hashtbl.mem keys id) then Hashtbl.add keys id (store_key st id))
    clusters;
  { store = st; clusters; keys }

let make keyring clusters = of_store (store keyring) clusters

let of_schemes keyring pairs =
  let clusters =
    List.map
      (fun (name, scheme) ->
        { Authz.Plan_keys.id = name;
          attrs = Attr.Set.singleton (Attr.make name);
          scheme;
          holders = Authz.Subject.Set.empty })
      pairs
  in
  make keyring clusters

let clusters ctx = ctx.clusters

let cluster_of ctx a =
  match Authz.Plan_keys.cluster_of_attr ctx.clusters a with
  | Some c -> c
  | None -> err "attribute %s belongs to no key cluster" (Attr.name a)

let cluster_by_id ctx id =
  match
    List.find_opt (fun c -> c.Authz.Plan_keys.id = id) ctx.clusters
  with
  | Some c -> c
  | None -> err "unknown key cluster %s" id

let scheme_of ctx a = (cluster_of ctx a).Authz.Plan_keys.scheme

let keys_of ctx id =
  match Hashtbl.find_opt ctx.keys id with
  | Some k -> k
  | None -> store_key ctx.store id

(* --- serialization ------------------------------------------------- *)

(* %h (hexadecimal float) round-trips every float exactly, including
   the ones string_of_float used to corrupt (it keeps only ~12 digits);
   float_of_string parses the hex form as well as nan/infinity. *)
let hex_float f = Printf.sprintf "%h" f

let serialize = function
  | Value.Null -> "n"
  | Value.Bool b -> if b then "b1" else "b0"
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Float f -> "f" ^ hex_float f
  | Value.Str s -> "s" ^ s
  | Value.Date d -> "d" ^ string_of_int d
  | Value.Enc _ -> err "cannot re-serialize a ciphertext"

let deserialize s =
  if String.length s = 0 then err "empty serialized value"
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'n' -> Value.Null
    | 'b' -> Value.Bool (body = "1")
    | 'i' -> Value.Int (int_of_string body)
    | 'f' -> Value.Float (float_of_string body)
    | 's' -> Value.Str body
    | 'd' -> Value.Date (int_of_string body)
    | c -> err "bad serialization tag %c" c

(* --- numeric images for OPE / Paillier ----------------------------- *)

(* Every numeric image is in cents (value * 100). The checks close two
   silent-garbage holes: [int_of_float] maps NaN/oversized floats to
   unspecified ints, and [i * 100] wraps around near [max_int]. *)

let cents f =
  if not (Float.is_finite f) then
    err "cannot encode non-finite float %s as cents" (hex_float f);
  let scaled = Float.round (f *. 100.0) in
  if Float.abs scaled >= 0x1p62 then
    err "float %s overflows the cent encoding" (hex_float f);
  int_of_float scaled

let int_cents i =
  if i > max_int / 100 || i < min_int / 100 then
    err "%d overflows the cent encoding" i;
  i * 100

(* OPE plaintext domain: signed 40-bit (the [Ope] module's own check
   raises [Invalid_argument]; surface the typed error instead). *)
let ope_min = -(1 lsl 39)
let ope_max = (1 lsl 39) - 1

let ope_guard img =
  if img < ope_min || img > ope_max then
    err "cent-scaled value %d outside the OPE plaintext domain" img;
  img

let str_prefix s =
  (* 4-byte big-endian prefix (fits the 40-bit OPE domain):
     order-preserving up to prefix ties; the deterministic tail in the
     payload recovers the exact string *)
  let v = ref 0 in
  for i = 0 to 3 do
    let byte = if i < String.length s then Char.code s.[i] else 0 in
    v := (!v lsl 8) lor byte
  done;
  !v

(* All numeric types share the cents scale so OPE order is preserved
   across them: Int 4 must land above Float 3.5 (the old unit-scale Int
   image put 4 below 350 = cents 3.50 — orderings involving an Int
   column and a Float constant came out wrong). *)
let ope_tag = function
  | Value.Int _ -> 'i'
  | Value.Date _ -> 'd'
  | Value.Bool _ -> 'b'
  | Value.Float _ -> 'f'
  | Value.Str _ -> 's'
  | Value.Null | Value.Enc _ -> err "no OPE image for this value"

let ope_image = function
  | Value.Int i -> (ope_guard (int_cents i), 'i')
  | Value.Date d -> (ope_guard (int_cents d), 'd')
  | Value.Bool b -> ((if b then 100 else 0), 'b')
  | Value.Float f -> (ope_guard (cents f), 'f')
  | Value.Str s -> (str_prefix s, 's')
  | Value.Null | Value.Enc _ -> err "no OPE image for this value"

let phe_image = function
  | Value.Int i -> (int_cents i, 'i')
  | Value.Float f -> (cents f, 'f')
  | Value.Date d -> (int_cents d, 'd')
  | Value.Bool b -> ((if b then 100 else 0), 'b')
  | Value.Null | Value.Str _ | Value.Enc _ ->
      err "no additive image for this value"

let phe_unscale tag scaled =
  match tag with
  | 'i' when scaled mod 100 = 0 -> Value.Int (scaled / 100)
  | 'i' | 'f' -> Value.Float (float_of_int scaled /. 100.0)
  | 'd' -> Value.Date (scaled / 100)
  | 'b' -> Value.Bool (scaled <> 0)
  | c -> err "bad phe tag %c" c

(* --- OPE ciphertext comparison -------------------------------------- *)

let ope_bytes = 7

(* An OPE payload is [7-byte big-endian cipher | tag | det tail]. The
   tail holds the det-encrypted value where the image cannot recover
   it: strings, and floats finer than a cent (an [avg] re-encrypted for
   a later comparison); cent-exact floats keep their tail-free bytes.
   The cipher prefix carries the order; the tag byte and the det tail do
   NOT (the old executor compared whole payloads, so two strings sharing
   a 4-byte prefix were silently ordered by their non-order-preserving
   det tails). *)
let sub_cent f = float_of_int (cents f) /. 100.0 <> f

let ope_tailed = function
  | Value.Str _ -> true
  | Value.Float f -> sub_cent f
  | _ -> false

let tag_class = function
  | 'i' | 'f' -> `Num
  | 'd' -> `Date
  | 'b' -> `Bool
  | 's' -> `Str
  | t -> err "bad OPE tag %c" t

let incomparable ta tb = err "incomparable OPE ciphertexts (tags %c / %c)" ta tb

let tied_prefix () =
  err
    "OPE order undefined: distinct strings share a 4-byte prefix \
     (ordering beyond the prefix needs plaintext)"

let ope_parts (c : Value.cipher) =
  let p = c.Value.payload in
  if String.length p < ope_bytes + 1 then err "truncated OPE payload";
  (String.sub p 0 ope_bytes, p.[ope_bytes])

let ope_compare a b =
  let pa, ta = ope_parts a and pb, tb = ope_parts b in
  if tag_class ta <> tag_class tb then incomparable ta tb;
  let c = String.compare pa pb in
  if c <> 0 then c
  else if ta = 's' then
    if String.equal a.Value.payload b.Value.payload then 0 else tied_prefix ()
  else (* numeric images tied at cent precision are equal *) 0

let ope_equal a b =
  if String.equal a.Value.payload b.Value.payload then true
  else
    let pa, ta = ope_parts a and pb, tb = ope_parts b in
    if tag_class ta <> tag_class tb then false
    else if ta = 's' then false (* distinct payload = distinct string *)
    else String.equal pa pb

(* one letter per OPE type class: Int and Float share one *)
let class_letter = function 'i' | 'f' -> 'N' | t -> t

(* a key shared by every OPE ciphertext [ope_equal] to [c]: type class
   and order prefix, or the whole payload for a string (its det tail
   decides) and for a payload too short to parse *)
let ope_equal_key (c : Value.cipher) =
  let p = c.Value.payload in
  if String.length p < ope_bytes + 1 then p
  else
    match p.[ope_bytes] with
    | ('i' | 'f' | 'd' | 'b') as t ->
        String.make 1 (class_letter t) ^ String.sub p 0 ope_bytes
    | _ -> p

(* --- encryption (single value) -------------------------------------- *)

let cipher_value scheme key_id payload =
  Value.Enc { Value.scheme = C.Scheme.name scheme; key_id; payload }

(* The OPE payloads of non-null plaintexts [vs] whose images are
   [images], in one sorted tree walk over the images: each
   partition-tree node's PRF runs once however many values pass through
   it. *)
let ope_payloads ks vs images =
  Array.map2
    (fun v c ->
      let tail = if ope_tailed v then C.Det.encrypt ks.det (serialize v) else "" in
      String.concat "" [ C.Ope.bytes_of_cipher c; String.make 1 (ope_tag v); tail ])
    vs
    (C.Ope.encode_array ks.ope images)

(* [draw] supplies the encryption randomness (Rnd IVs, Paillier
   blinding); det and OPE draw nothing. *)
let encrypt_with ~draw ctx (cluster : Authz.Plan_keys.cluster) v =
  let key_id = cluster.Authz.Plan_keys.id in
  let ks = keys_of ctx key_id in
  let scheme = cluster.Authz.Plan_keys.scheme in
  let mk = cipher_value scheme key_id in
  match scheme with
  | C.Scheme.Det -> mk (C.Det.encrypt ks.det (serialize v))
  | C.Scheme.Rnd -> mk (C.Rnd.encrypt ks.rnd (draw ()) (serialize v))
  | C.Scheme.Ope -> mk (ope_payloads ks [| v |] [| fst (ope_image v) |]).(0)
  | C.Scheme.Phe ->
      let image, tag = phe_image v in
      let pk, _ = paillier ctx.store in
      let cipher =
        C.Paillier.encrypt pk (draw ()) (C.Bignum.of_int image)
      in
      mk (Printf.sprintf "v|%s|%c" (C.Bignum.to_string cipher) tag)

let encrypt_value ?rng ctx a v =
  match v with
  | Value.Null -> Value.Null
  | Value.Enc _ -> err "attribute %s is already encrypted" (Attr.name a)
  | _ ->
      (* without [rng], the keyring's shared stream, which is
         order-dependent; the executor passes position-derived
         generators so ciphertext bytes don't depend on evaluation order *)
      let draw () =
        match rng with Some r -> r | None -> C.Keyring.rng ctx.store.keyring
      in
      encrypt_with ~draw ctx (cluster_of ctx a) v

(* [ope_payloads] of each value, in one tree walk over the values that
   have an image; a value without one gets the error its image raises *)
let ope_each ks vs =
  let images = Array.map (fun v -> match ope_image v with i, _ -> Ok i | exception e -> Error e) vs in
  let live =
    Array.of_list (List.filter (fun k -> Result.is_ok images.(k)) (List.init (Array.length vs) Fun.id))
  in
  let payloads =
    ope_payloads ks (Array.map (Array.get vs) live) (Array.map (fun k -> Result.get_ok images.(k)) live)
  in
  let out = Array.map (Result.map (fun _ -> "")) images in
  Array.iteri (fun j k -> out.(k) <- Ok payloads.(j)) live;
  out

let encrypt_each ctx a ~rng vs =
  let already () = err "attribute %s is already encrypted" (Attr.name a) in
  match Array.find_opt (fun v -> not (Value.is_null v)) vs with
  | None -> vs
  | Some (Value.Enc _) -> already ()
  | Some _ -> (
      let cluster = cluster_of ctx a in
      let key_id = cluster.Authz.Plan_keys.id in
      let each =
        match cluster.Authz.Plan_keys.scheme with
        | C.Scheme.Ope ->
            let payloads = ope_each (keys_of ctx key_id) vs in
            fun k _ -> cipher_value C.Scheme.Ope key_id (Result.fold ~ok:Fun.id ~error:raise payloads.(k))
        | _ -> fun k v -> encrypt_with ~draw:(fun () -> rng k) ctx cluster v
      in
      (* cell by cell, so the first bad cell raises first *)
      Array.mapi
        (fun k v ->
          match v with
          | Value.Null -> Value.Null
          | Value.Enc _ -> already ()
          | v -> each k v)
        vs)

let node_rng ctx id =
  C.Keyring.derived_rng ctx.store.keyring ("exec-node:" ^ string_of_int id)

(* --- sealed columns --------------------------------------------------- *)

(* [prefix ^ scheme ^ suffix], an Obs name, built only while tracing
   is on: [Obs] ignores a name then *)
let scheme_obs scheme prefix suffix =
  if Obs.enabled () then prefix ^ C.Scheme.name scheme ^ suffix else ""

(* A sealed column over [plain] under [scheme] and key [ks]. [seal]
   computes cells' payloads — the bytes eager encryption would have
   produced — when something reads them: from the words, which are the
   rnd IVs the pool drew or the OPE images. Keys are immutable, so that
   may happen on any domain, long after this execution. *)
let sealed_column ks scheme ~key_id plain words =
  let name = C.Scheme.name scheme in
  let seal =
    match scheme with
    | C.Scheme.Det ->
        fun vs _ -> Array.map (fun v -> C.Det.encrypt ks.det (serialize v)) vs
    | C.Scheme.Ope -> fun vs ws -> ope_payloads ks vs (Array.map Int64.to_int ws)
    | C.Scheme.Rnd ->
        fun vs ivs ->
          Array.map2 (fun v iv -> C.Rnd.encrypt_iv ks.rnd iv (serialize v)) vs ivs
    | C.Scheme.Phe -> invalid_arg "Enc_exec: phe columns are never sealed"
  in
  { Column.scheme = name;
    plain;
    words;
    key_id;
    seal =
      (fun vs ws ->
        Obs.incr ~by:(Array.length vs) (scheme_obs scheme "enc_exec." ".materialized");
        seal vs ws) }

let plain_cell (s : Column.sealed) i = Column.get s.Column.plain i
let image (s : Column.sealed) i = Int64.to_int (Column.word s i)

(* A live det cell's payload is a function of its serialized plaintext
   under the key, and SIV is injective, so det equality is equality of
   [serialize]: Int 4 and Float 4.0 differ, and so do [-0.0] and [0.0].
   Ints, dates and strings serialize injectively, so they compare
   directly. *)
let det_equal a b =
  match (a, b) with
  | Value.Int x, Value.Int y | Value.Date x, Value.Date y -> Int.equal x y
  | Value.Str x, Value.Str y -> String.equal x y
  | _ -> String.equal (serialize a) (serialize b)

(* OPE is strictly monotone and its cipher bytes are fixed-width
   big-endian, so comparing images compares the ciphertexts' order
   prefixes *)
let sealed_equal (a : Column.sealed) i (b : Column.sealed) j =
  let va = plain_cell a i and vb = plain_cell b j in
  match a.Column.scheme with
  | "ope" -> (
      tag_class (ope_tag va) = tag_class (ope_tag vb)
      &&
      match (va, vb) with
      | Value.Str x, Value.Str y -> String.equal x y
      | _ -> image a i = image b j)
  | _ -> det_equal va vb

let sealed_order (a : Column.sealed) i (b : Column.sealed) j =
  let va = plain_cell a i and vb = plain_cell b j in
  let ta = ope_tag va and tb = ope_tag vb in
  if tag_class ta <> tag_class tb then incomparable ta tb;
  let c = Int.compare (image a i) (image b j) in
  if c <> 0 then c
  else
    match (va, vb) with
    | Value.Str x, Value.Str y when not (String.equal x y) -> tied_prefix ()
    | _ -> 0

let sealed_key ~join (s : Column.sealed) i =
  match plain_cell s i with
  | Value.Null -> "_"
  | v -> (
      let own =
        match s.Column.scheme with
        | "det" -> serialize v
        | _ when join -> (
            match v with
            | Value.Str x -> "s" ^ x
            | v -> String.make 1 (class_letter (ope_tag v)) ^ string_of_int (image s i))
        | _ ->
            if ope_tailed v then "~" ^ serialize v
            else String.make 1 (ope_tag v) ^ string_of_int (image s i)
      in
      if join then
        String.concat "" [ "P"; s.Column.scheme; "/"; s.Column.key_id; "/"; own ]
      else own)

(* [det_equal] of two floats: [serialize] is exact, so it tells floats
   apart by their bits, except that every nan of one sign prints alike *)
let det_float_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || Float.is_nan x && Float.is_nan y
     && String.equal (serialize (Value.Float x)) (serialize (Value.Float y))

(* the OPE tag every cell of a typed plain column carries *)
let typed_tag = function
  | Column.Ints _ -> Some 'i'
  | Column.Floats _ -> Some 'f'
  | Column.Dates _ -> Some 'd'
  | Column.Bools _ -> Some 'b'
  | Column.Strs _ -> Some 's'
  | Column.Values _ | Column.Sealed _ -> None

let typed_equal (a : Column.sealed) (b : Column.sealed) =
  match (a.Column.scheme, typed_tag a.Column.plain, typed_tag b.Column.plain) with
  | "det", Some _, Some _ -> (
      match (a.Column.plain, b.Column.plain) with
      | Column.Ints x, Column.Ints y | Column.Dates x, Column.Dates y ->
          Some (fun i j -> Int.equal x.(i) y.(j))
      | Column.Strs x, Column.Strs y -> Some (fun i j -> String.equal x.(i) y.(j))
      | Column.Bools x, Column.Bools y -> Some (fun i j -> Bool.equal x.(i) y.(j))
      | Column.Floats x, Column.Floats y -> Some (fun i j -> det_float_equal x.(i) y.(j))
      | _ -> (* kinds serialize under distinct tags *) Some (fun _ _ -> false))
  | "ope", Some ta, Some tb -> (
      if tag_class ta <> tag_class tb then Some (fun _ _ -> false)
      else
        match (a.Column.plain, b.Column.plain) with
        | Column.Strs x, Column.Strs y -> Some (fun i j -> String.equal x.(i) y.(j))
        | _ -> Some (fun i j -> Int.equal (image a i) (image b j)))
  | _ -> None

let typed_order (a : Column.sealed) (b : Column.sealed) =
  match (typed_tag a.Column.plain, typed_tag b.Column.plain) with
  | Some ta, Some tb -> (
      if tag_class ta <> tag_class tb then Some (fun _ _ -> incomparable ta tb)
      else
        match (a.Column.plain, b.Column.plain) with
        | Column.Strs x, Column.Strs y ->
            Some
              (fun i j ->
                let c = Int.compare (image a i) (image b j) in
                if c = 0 && not (String.equal x.(i) y.(j)) then tied_prefix () else c)
        | _ -> Some (fun i j -> Int.compare (image a i) (image b j)))
  | _ -> None

let ope_const_image (a : Column.sealed) (k : Column.sealed) =
  match (a.Column.scheme, typed_tag a.Column.plain, typed_tag k.Column.plain) with
  | "ope", Some ta, Some tk when ta <> 's' && tag_class ta = tag_class tk -> Some (image k 0)
  | _ -> None

let sealed_int_keys (a : Column.sealed) (b : Column.sealed) =
  if
    not
      (String.equal a.Column.scheme b.Column.scheme
      && String.equal a.Column.key_id b.Column.key_id)
  then None
  else
    match (a.Column.scheme, a.Column.plain, b.Column.plain) with
    | "det", Column.Ints x, Column.Ints y | "det", Column.Dates x, Column.Dates y ->
        Some ((fun i -> x.(i)), fun j -> y.(j))
    | "ope", (Column.Ints _ | Column.Floats _), (Column.Ints _ | Column.Floats _)
    | "ope", Column.Dates _, Column.Dates _
    | "ope", Column.Bools _, Column.Bools _ ->
        Some (image a, image b)
    | _ -> None

(* payload lengths: det is [iv | serialized plaintext]; rnd adds a tag;
   OPE is [cipher | tag] plus a det tail where the image is lossy *)
let sealed_payload_length (s : Column.sealed) v =
  let plain = String.length (serialize v) in
  match s.Column.scheme with
  | "det" -> plain + 8
  | "ope" -> ope_bytes + 1 + if ope_tailed v then plain + 8 else 0
  | _ -> plain + 16

(* --- batched column kernels ------------------------------------------ *)

(* Per-(column, row) randomness pool. The pool pass replays the exact
   draw sequence of the row-at-a-time encryptor — per row [k] one
   generator [Prng.derive rng_root k], consumed across the encrypted
   columns in attribute order, Null cells drawing nothing — so the
   kernels below produce byte-identical ciphertext, while the expensive
   per-draw work (Paillier r^n) moves into a tight per-column loop. *)
type pool_slot =
  | No_draws
  | Ivs of Bytes.t (* row [k]'s IV at bytes [8k .. 8k+7] *)
  | Units of C.Bignum.t array

(* Each column's OPE images, at bytes [8k .. 8k+7], computed in row
   order so the first bad cell raises as the row path would;
   [already] raises for a ciphertext cell. *)
let ope_words ~already col =
  let n = Column.length col in
  let w = Bytes.make (8 * n) '\000' in
  let set k img = Bytes.set_int64_le w (8 * k) (Int64.of_int img) in
  (match col with
  | Column.Ints a -> Array.iteri (fun k i -> set k (ope_guard (int_cents i))) a
  | Column.Dates a -> Array.iteri (fun k d -> set k (ope_guard (int_cents d))) a
  | Column.Bools a -> Array.iteri (fun k b -> set k (if b then 100 else 0)) a
  | Column.Floats a -> Array.iteri (fun k f -> set k (ope_guard (cents f))) a
  | Column.Strs a -> Array.iteri (fun k s -> set k (str_prefix s)) a
  | Column.Values a ->
      Array.iteri
        (fun k v ->
          match v with
          | Value.Null -> ()
          | Value.Enc _ -> already ()
          | v -> set k (fst (ope_image v)))
        a
  | Column.Sealed _ -> ());
  w

let encrypt_batch ctx ~rng_root ~enc =
  let enc = List.map (fun (a, col) -> (a, cluster_of ctx a, col)) enc in
  let n = match enc with [] -> 0 | (_, _, c) :: _ -> Column.length c in
  let needs_phe =
    List.exists
      (fun (_, cl, _) -> cl.Authz.Plan_keys.scheme = C.Scheme.Phe)
      enc
  in
  let pk =
    if needs_phe then Some (fst (paillier ctx.store)) else None
  in
  let cols = Array.of_list (List.map (fun (_, _, c) -> c) enc) in
  let slots =
    Array.of_list
      (List.map
         (fun (_, cl, _) ->
           match cl.Authz.Plan_keys.scheme with
           | C.Scheme.Rnd -> Ivs (Bytes.make (8 * n) '\000')
           | C.Scheme.Phe -> Units (Array.make n C.Bignum.zero)
           | C.Scheme.Det | C.Scheme.Ope -> No_draws)
         enc)
  in
  let any_draws =
    Array.exists (function No_draws -> false | _ -> true) slots
  in
  let units = Array.exists (function Units _ -> true | _ -> false) slots in
  if any_draws then
    Obs.time "enc_exec.pool_s" (fun () ->
        if units then
          for k = 0 to n - 1 do
            let rng = C.Prng.derive rng_root k in
            Array.iteri
              (fun e slot ->
                match slot with
                | No_draws -> ()
                | Ivs b ->
                    if not (Column.is_null cols.(e) k) then
                      Bytes.set_int64_le b (8 * k) (C.Prng.next64 rng)
                | Units a ->
                    if not (Column.is_null cols.(e) k) then
                      a.(k) <- C.Paillier.draw_unit (Option.get pk) rng)
              slots
          done
        else
          (* IVs only: row [k]'s [j]-th draw written straight into its
             column's words, no generator built *)
          for k = 0 to n - 1 do
            let draw = ref 0 in
            for e = 0 to Array.length slots - 1 do
              match slots.(e) with
              | Ivs b when not (Column.is_null cols.(e) k) ->
                  incr draw;
                  C.Prng.draw_into rng_root ~row:k ~draw:!draw b (8 * k)
              | _ -> ()
            done
          done);
  List.mapi
    (fun e (attr, cl, col) ->
      let key_id = cl.Authz.Plan_keys.id in
      let ks = keys_of ctx key_id in
      let scheme = cl.Authz.Plan_keys.scheme in
      let already () =
        err "attribute %s is already encrypted" (Attr.name attr)
      in
      (* every live cell of a sealed input is ciphertext: its first
         non-null row raises, as that cell would in a boxed column, and
         an all-Null one stays all Null *)
      let resealed () =
        for k = 0 to n - 1 do
          if not (Column.is_null col k) then already ()
        done;
        Column.Values (Array.make n Value.Null)
      in
      let mk = cipher_value scheme key_id in
      let boxed out = Column.Values out in
      Obs.time (scheme_obs scheme "enc_exec.enc_s." "") @@ fun () ->
      match (scheme, col) with
      | _, Column.Sealed _ -> resealed ()
      | (C.Scheme.Det | C.Scheme.Rnd | C.Scheme.Ope), _ ->
          (* sealed, not encrypted: the column keeps its plaintext and
             one word per row, and no cipher runs until a cell is read.
             The encrypt-time errors still raise here, in row order: an
             OPE image out of range, a cell already encrypted. *)
          let words =
            match (scheme, slots.(e)) with
            | C.Scheme.Rnd, Ivs ivs -> ivs
            | C.Scheme.Ope, _ -> ope_words ~already col
            | _ -> Bytes.empty
          in
          let live =
            match col with
            | Column.Values a ->
                Array.fold_left
                  (fun live v ->
                    match v with
                    | Value.Null -> live
                    | Value.Enc _ -> already ()
                    | _ -> live + 1)
                  0 a
            | _ -> n
          in
          Obs.incr ~by:live (scheme_obs scheme "enc_exec." ".sealed");
          Column.Sealed (sealed_column ks scheme ~key_id col words)
      | C.Scheme.Phe, _ -> (
          let pk = match pk with Some pk -> pk | None -> assert false in
          let units =
            match slots.(e) with Units a -> a | _ -> assert false
          in
          let enc k img tag =
            let rn = C.Paillier.blinding_of_unit pk units.(k) in
            let c = C.Paillier.encrypt_blinded pk rn (C.Bignum.of_int img) in
            mk (Printf.sprintf "v|%s|%c" (C.Paillier.cipher_to_string c) tag)
          in
          match col with
          | Column.Ints a -> boxed (Array.mapi (fun k i -> enc k (int_cents i) 'i') a)
          | Column.Dates a -> boxed (Array.mapi (fun k d -> enc k (int_cents d) 'd') a)
          | Column.Bools a ->
              boxed (Array.mapi (fun k b -> enc k (if b then 100 else 0) 'b') a)
          | Column.Floats a -> boxed (Array.mapi (fun k f -> enc k (cents f) 'f') a)
          | Column.Strs _ ->
              err "no additive image for attribute %s (string)"
                (Attr.name attr)
          | Column.Values a ->
              boxed
                (Array.mapi
                   (fun k v ->
                     match v with
                     | Value.Null -> Value.Null
                     | Value.Enc _ -> already ()
                     | v ->
                         let img, tag = phe_image v in
                         enc k img tag)
                   a)
          | Column.Sealed _ -> assert false))
    enc

(* --- decryption ------------------------------------------------------ *)

let decrypt_payload ctx ~coder (c : Value.cipher) =
  ignore (cluster_by_id ctx c.Value.key_id);
  let ks = keys_of ctx c.Value.key_id in
  match c.Value.scheme with
  | "det" -> deserialize (C.Det.decrypt ks.det c.Value.payload)
  | "rnd" -> deserialize (C.Rnd.decrypt ks.rnd c.Value.payload)
  | "ope" ->
      let p = c.Value.payload in
      if String.length p < ope_bytes + 1 then err "truncated OPE payload";
      let tag = p.[ope_bytes] in
      let image = coder c.Value.key_id ks (String.sub p 0 ope_bytes) in
      (match tag with
      | 'i' -> Value.Int (image / 100)
      | 'd' -> Value.Date (image / 100)
      | 'b' -> Value.Bool (image <> 0)
      | 'f' when String.length p = ope_bytes + 1 ->
          Value.Float (float_of_int image /. 100.0)
      | 'f' | 's' ->
          let tail =
            String.sub p (ope_bytes + 1) (String.length p - ope_bytes - 1)
          in
          deserialize (C.Det.decrypt ks.det tail)
      | t -> err "bad OPE tag %c" t)
  | "phe" -> (
      let pk, sk = paillier ctx.store in
      match String.split_on_char '|' c.Value.payload with
      | [ "v"; cipher; tag ] ->
          let m =
            C.Paillier.decrypt_signed pk sk (C.Bignum.of_string cipher)
          in
          phe_unscale tag.[0]
            (match C.Bignum.to_int_opt m with
            | Some i -> i
            | None -> err "phe plaintext overflow")
      | [ "a"; cipher; count; tag ] ->
          let m =
            C.Paillier.decrypt_signed pk sk (C.Bignum.of_string cipher)
          in
          let n = int_of_string count in
          if n = 0 then Value.Null
          else
            let sum =
              match C.Bignum.to_int_opt m with
              | Some i -> i
              | None -> err "phe plaintext overflow"
            in
            ignore tag;
            Value.Float (float_of_int sum /. (100.0 *. float_of_int n))
      | _ -> err "bad phe payload")
  | s -> err "unknown scheme %s" s

(* a malformed payload surfaces as [Crypto_error], never as the crypto
   layer's own [Invalid_argument] or [Failure] *)
let decrypt_gen ctx ~coder (c : Value.cipher) =
  try decrypt_payload ctx ~coder c
  with Invalid_argument m | Failure m ->
    err "malformed %s ciphertext under key %s: %s" c.Value.scheme
      c.Value.key_id m

let plain_coder _key_id (ks : key) bytes = C.Ope.decrypt_bytes ks.ope bytes
let decrypt_cipher ctx c = decrypt_gen ctx ~coder:plain_coder c

let decrypt_value ctx = function
  | Value.Null -> Value.Null
  | Value.Enc c -> decrypt_cipher ctx c
  | _ -> err "decrypt of a plaintext value"

(* The column's OPE prefixes, decoded in one sorted tree walk per key
   like encryption: [images.(k)] is row k's image, or [min_int] where
   row k holds no well-formed OPE cipher ([decrypt_gen] then reports
   the fault in row order). *)
let ope_images ctx cells =
  let images = Array.make (Array.length cells) min_int in
  let by_key = Hashtbl.create 2 in
  Array.iteri
    (fun k v ->
      match v with
      | Value.Enc { Value.scheme = "ope"; key_id; payload }
        when String.length payload > ope_bytes ->
          let c = C.Ope.cipher_of_bytes (String.sub payload 0 ope_bytes) in
          if c < 1 lsl C.Ope.cipher_bits then
            let rows = Hashtbl.find_opt by_key key_id in
            Hashtbl.replace by_key key_id
              ((k, c) :: Option.value ~default:[] rows)
      | _ -> ())
    cells;
  if Hashtbl.length by_key > 0 then
    Obs.time "enc_exec.dec_s.ope" (fun () ->
        Hashtbl.iter
          (fun key_id rows ->
            let rows = Array.of_list rows in
            let plains =
              C.Ope.decode_array (keys_of ctx key_id).ope (Array.map snd rows)
            in
            Array.iteri (fun j (k, _) -> images.(k) <- plains.(j)) rows)
          by_key);
  images

(* A sealed column decrypts to its plaintext without running the
   cipher: each live cell comes back as what decrypting its bytes would
   give — [deserialize (serialize v)], except that a tail-free OPE
   float opens from its cent image (so [-0.0] opens as [0.0]). The key
   check stays, at the first live row, as that row's payload would make
   it. *)
let unseal ctx (s : Column.sealed) =
  match s.Column.plain with
  | (Column.Ints _ | Column.Dates _ | Column.Bools _ | Column.Strs _) as plain
    when Column.length plain > 0 ->
      (* ints, dates, booleans and strings come back from [serialize]
         as they went in, so the plain column itself is the decryption *)
      ignore (cluster_by_id ctx s.Column.key_id);
      plain
  | _ ->
      let cells = Column.to_values s.Column.plain in
      if Array.exists (fun v -> not (Value.is_null v)) cells then
        ignore (cluster_by_id ctx s.Column.key_id);
      let ope = String.equal s.Column.scheme "ope" in
      Column.of_values
        (Array.mapi
           (fun k -> function
             | Value.Null -> Value.Null
             | Value.Float f when ope && not (sub_cent f) ->
                 Value.Float (float_of_int (image s k) /. 100.0)
             | v -> deserialize (serialize v))
           cells)

let decrypt_cells ctx col =
  let cells = Column.to_values col in
  let images = ope_images ctx cells in
  let dec k c =
    decrypt_gen ctx c ~coder:(fun key_id ks bytes ->
        if images.(k) <> min_int then images.(k)
        else plain_coder key_id ks bytes)
  in
  let dec =
    if Obs.enabled () then fun k (c : Value.cipher) ->
      Obs.time ("enc_exec.dec_s." ^ c.Value.scheme) (fun () -> dec k c)
    else dec
  in
  let out =
    Array.mapi
      (fun k -> function
        | Value.Null -> Value.Null
        | Value.Enc c -> dec k c
        | _ -> err "decrypt of a plaintext value")
      cells
  in
  Column.of_values out

let decrypt_batch ctx = function
  | Column.Sealed s -> unseal ctx s
  | ( Column.Ints _ | Column.Floats _ | Column.Bools _ | Column.Strs _
    | Column.Dates _ | Column.Values _ ) as col ->
      decrypt_cells ctx col

(* --- constants in dispatched conditions ----------------------------- *)

(* the cluster [sample]'s ciphertext is under, with the scheme it was
   produced with (which may differ from the cluster's current one) *)
let sample_cluster ctx ~key_id ~scheme =
  let cluster = cluster_by_id ctx key_id in
  match C.Scheme.of_name scheme with
  | Some s when s = cluster.Authz.Plan_keys.scheme -> cluster
  | Some s -> { cluster with Authz.Plan_keys.scheme = s }
  | None -> err "unknown scheme %s" scheme

(* A derived generator keeps constant encryption pure: rnd/phe constants
   only get built on the way to an "unsupported comparison" error, and
   touching the shared stream here would make predicate evaluation
   unsafe to run on several domains. *)
let const_rng ctx = C.Keyring.derived_rng ctx.store.keyring "const"

let const_cipher ctx (sample : Value.cipher) const =
  encrypt_with
    ~draw:(fun () -> const_rng ctx)
    ctx
    (sample_cluster ctx ~key_id:sample.Value.key_id ~scheme:sample.Value.scheme)
    const

let const_ciphers ctx (sample : Value.cipher) consts =
  match sample_cluster ctx ~key_id:sample.Value.key_id ~scheme:sample.Value.scheme with
  | { Authz.Plan_keys.scheme = C.Scheme.Ope; id = key_id; _ } ->
      Array.map (Result.map (cipher_value C.Scheme.Ope key_id)) (ope_each (keys_of ctx key_id) consts)
  | _ ->
      Array.map
        (fun v -> match const_cipher ctx sample v with c -> Ok c | exception e -> Error e)
        consts
  | exception e -> Array.map (fun _ -> Error e) consts

let const_sealed ctx (sample : Column.sealed) const =
  let key_id = sample.Column.key_id in
  let cluster = sample_cluster ctx ~key_id ~scheme:sample.Column.scheme in
  let scheme = cluster.Authz.Plan_keys.scheme in
  let words =
    match scheme with
    | C.Scheme.Ope ->
        ope_words ~already:(fun () -> ()) (Column.Values [| const |])
    | C.Scheme.Rnd ->
        let w = Bytes.create 8 in
        Bytes.set_int64_le w 0 (C.Prng.next64 (const_rng ctx));
        w
    | C.Scheme.Det | C.Scheme.Phe -> Bytes.empty
  in
  sealed_column (keys_of ctx key_id) scheme ~key_id (Column.of_values [| const |]) words

(* --- homomorphic aggregation ---------------------------------------- *)

let phe_sum ctx values ~avg =
  let pk, _ = paillier ctx.store in
  let parse v =
    match v with
    | Value.Enc c when c.Value.scheme = "phe" -> (
        match String.split_on_char '|' c.Value.payload with
        | [ "v"; cipher; tag ] -> (
            (* a malformed payload raises [Crypto_error], as in
               [decrypt_gen] *)
            try Some (c, C.Bignum.of_string cipher, tag.[0])
            with Invalid_argument m | Failure m ->
              err "malformed phe ciphertext under key %s: %s" c.Value.key_id m)
        | _ -> err "cannot aggregate an already-aggregated phe value")
    | Value.Null -> None
    | _ -> err "phe aggregation over a non-phe value"
  in
  let parsed = List.filter_map parse values in
  match parsed with
  | [] -> Value.Null
  | (sample, first, tag) :: rest ->
      let sum =
        List.fold_left
          (fun acc (_, c, _) -> C.Paillier.add pk acc c)
          first rest
      in
      let n = List.length parsed in
      let payload =
        if avg then
          Printf.sprintf "a|%s|%d|%c" (C.Bignum.to_string sum) n tag
        else Printf.sprintf "v|%s|%c" (C.Bignum.to_string sum) tag
      in
      Value.Enc { sample with Value.payload }
