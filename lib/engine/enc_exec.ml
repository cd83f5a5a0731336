open Relalg
module C = Mpq_crypto

exception Crypto_error of string

let err fmt = Format.kasprintf (fun s -> raise (Crypto_error s)) fmt

(* Scheme keys are derived from the cluster secret by PRF plus a Speck
   key schedule — far too expensive to repeat per value, which is what
   the first row-at-a-time executor did. A ctx derives every cluster's
   keys eagerly at construction (eager, not lazy: the table is read-only
   afterwards, so several domains can share it without synchronization;
   [Lazy.force] is not domain-safe). *)
type keys = { det : C.Det.key; rnd : C.Rnd.key; ope : C.Ope.key }

type ctx = {
  keyring : C.Keyring.t;
  clusters : Authz.Plan_keys.cluster list;
  keys : (string, keys) Hashtbl.t;
  (* predicate-constant ciphertext memo: the comparable schemes (det,
     ope) are deterministic, so encrypting the same constant under the
     same cluster per row is pure waste — a selection over an encrypted
     column used to pay a full OPE traversal for every row. Guarded by
     the mutex because a ctx may be shared across domains. *)
  consts : (string * string * Value.t, Value.t) Hashtbl.t;
  consts_mu : Mutex.t;
}

let derive_keys keyring id =
  let s = C.Keyring.cluster_secret keyring id in
  { det = C.Keyring.det_key_of_secret s;
    rnd = C.Keyring.rnd_key_of_secret s;
    ope = C.Keyring.ope_key_of_secret s }

let make keyring clusters =
  let keys = Hashtbl.create (List.length clusters + 1) in
  List.iter
    (fun (c : Authz.Plan_keys.cluster) ->
      if not (Hashtbl.mem keys c.Authz.Plan_keys.id) then
        Hashtbl.add keys c.Authz.Plan_keys.id
          (derive_keys keyring c.Authz.Plan_keys.id))
    clusters;
  { keyring;
    clusters;
    keys;
    consts = Hashtbl.create 16;
    consts_mu = Mutex.create () }

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
  | None -> derive_keys ctx.keyring id

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
let ope_tail (ks : keys) v =
  match v with
  | Value.Str _ -> C.Det.encrypt ks.det (serialize v)
  | Value.Float f when float_of_int (cents f) /. 100.0 <> f ->
      C.Det.encrypt ks.det (serialize v)
  | _ -> ""

let tag_class = function
  | 'i' | 'f' -> `Num
  | 'd' -> `Date
  | 'b' -> `Bool
  | 's' -> `Str
  | t -> err "bad OPE tag %c" t

let ope_parts (c : Value.cipher) =
  let p = c.Value.payload in
  if String.length p < ope_bytes + 1 then err "truncated OPE payload";
  (String.sub p 0 ope_bytes, p.[ope_bytes])

let ope_compare a b =
  let pa, ta = ope_parts a and pb, tb = ope_parts b in
  if tag_class ta <> tag_class tb then
    err "incomparable OPE ciphertexts (tags %c / %c)" ta tb;
  let c = String.compare pa pb in
  if c <> 0 then c
  else if ta = 's' then
    if String.equal a.Value.payload b.Value.payload then 0
    else
      err
        "OPE order undefined: distinct strings share a 4-byte prefix \
         (ordering beyond the prefix needs plaintext)"
  else (* numeric images tied at cent precision are equal *) 0

let ope_equal a b =
  if String.equal a.Value.payload b.Value.payload then true
  else
    let pa, ta = ope_parts a and pb, tb = ope_parts b in
    if tag_class ta <> tag_class tb then false
    else if ta = 's' then false (* distinct payload = distinct string *)
    else String.equal pa pb

(* --- encryption (single value) -------------------------------------- *)

let encrypt_with ?rng ctx (cluster : Authz.Plan_keys.cluster) v =
  (* [rng] supplies the encryption randomness (Rnd IVs, Paillier
     blinding). Without it we draw from the keyring's shared stream,
     which is order-dependent; the executor passes position-derived
     generators so ciphertext bytes don't depend on evaluation order. *)
  let draw () = match rng with Some r -> r | None -> C.Keyring.rng ctx.keyring in
  let key_id = cluster.Authz.Plan_keys.id in
  let ks = keys_of ctx key_id in
  let mk scheme payload =
    Value.Enc { Value.scheme = C.Scheme.name scheme; key_id; payload }
  in
  match cluster.Authz.Plan_keys.scheme with
  | C.Scheme.Det -> mk C.Scheme.Det (C.Det.encrypt ks.det (serialize v))
  | C.Scheme.Rnd -> mk C.Scheme.Rnd (C.Rnd.encrypt ks.rnd (draw ()) (serialize v))
  | C.Scheme.Ope ->
      let image, tag = ope_image v in
      let prefix = C.Ope.encrypt_bytes ks.ope image in
      mk C.Scheme.Ope (prefix ^ String.make 1 tag ^ ope_tail ks v)
  | C.Scheme.Phe ->
      let image, tag = phe_image v in
      let pk, _ = C.Keyring.paillier ctx.keyring in
      let cipher =
        C.Paillier.encrypt pk (draw ()) (C.Bignum.of_int image)
      in
      mk C.Scheme.Phe
        (Printf.sprintf "v|%s|%c" (C.Bignum.to_string cipher) tag)

let encrypt_value ?rng ctx a v =
  match v with
  | Value.Null -> Value.Null
  | Value.Enc _ -> err "attribute %s is already encrypted" (Attr.name a)
  | _ -> encrypt_with ?rng ctx (cluster_of ctx a) v

let node_rng ctx id =
  C.Keyring.derived_rng ctx.keyring ("exec-node:" ^ string_of_int id)

(* --- batched column kernels ------------------------------------------ *)

(* Per-(column, row) randomness pool. The pool pass replays the exact
   draw sequence of the row-at-a-time encryptor — per row [k] one
   generator [Prng.derive rng_root k], consumed across the encrypted
   columns in attribute order, Null cells drawing nothing — so the
   kernels below produce byte-identical ciphertext, while the expensive
   per-draw work (Paillier r^n) moves into a tight per-column loop. *)
type pool_slot =
  | No_draws
  | Ivs of int64 array
  | Units of C.Bignum.t array

let is_null_cell col k =
  match col with
  | Column.Values a -> ( match a.(k) with Value.Null -> true | _ -> false)
  | _ -> false

let encrypt_batch ctx ~rng_root ~enc =
  let enc = List.map (fun (a, col) -> (a, cluster_of ctx a, col)) enc in
  let n = match enc with [] -> 0 | (_, _, c) :: _ -> Column.length c in
  let needs_phe =
    List.exists
      (fun (_, cl, _) -> cl.Authz.Plan_keys.scheme = C.Scheme.Phe)
      enc
  in
  let pk =
    if needs_phe then Some (fst (C.Keyring.paillier ctx.keyring)) else None
  in
  let cols = Array.of_list (List.map (fun (_, _, c) -> c) enc) in
  let slots =
    Array.of_list
      (List.map
         (fun (_, cl, _) ->
           match cl.Authz.Plan_keys.scheme with
           | C.Scheme.Rnd -> Ivs (Array.make n 0L)
           | C.Scheme.Phe -> Units (Array.make n C.Bignum.zero)
           | C.Scheme.Det | C.Scheme.Ope -> No_draws)
         enc)
  in
  let any_draws =
    Array.exists (function No_draws -> false | _ -> true) slots
  in
  if any_draws then
    Obs.time "enc_exec.pool_s" (fun () ->
        for k = 0 to n - 1 do
          let rng = C.Prng.derive rng_root k in
          Array.iteri
            (fun e slot ->
              match slot with
              | No_draws -> ()
              | Ivs a ->
                  if not (is_null_cell cols.(e) k) then
                    a.(k) <- C.Prng.next64 rng
              | Units a ->
                  if not (is_null_cell cols.(e) k) then
                    a.(k) <- C.Paillier.draw_unit (Option.get pk) rng)
            slots
        done);
  List.mapi
    (fun e (attr, cl, col) ->
      let key_id = cl.Authz.Plan_keys.id in
      let ks = keys_of ctx key_id in
      let scheme = cl.Authz.Plan_keys.scheme in
      let already () : Value.t =
        err "attribute %s is already encrypted" (Attr.name attr)
      in
      let mk payload =
        Value.Enc { Value.scheme = C.Scheme.name scheme; key_id; payload }
      in
      let out =
        Obs.time ("enc_exec.enc_s." ^ C.Scheme.name scheme) @@ fun () ->
        match scheme with
        | C.Scheme.Det -> (
            let enc s = mk (C.Det.encrypt ks.det s) in
            match col with
            | Column.Ints a -> Array.map (fun i -> enc ("i" ^ string_of_int i)) a
            | Column.Dates a -> Array.map (fun d -> enc ("d" ^ string_of_int d)) a
            | Column.Floats a -> Array.map (fun f -> enc ("f" ^ hex_float f)) a
            | Column.Bools a -> Array.map (fun b -> enc (if b then "b1" else "b0")) a
            | Column.Strs a -> Array.map (fun s -> enc ("s" ^ s)) a
            | Column.Values a ->
                Array.map
                  (function
                    | Value.Null -> Value.Null
                    | Value.Enc _ -> already ()
                    | v -> enc (serialize v))
                  a)
        | C.Scheme.Rnd -> (
            let ivs = match slots.(e) with Ivs a -> a | _ -> assert false in
            let enc k s = mk (C.Rnd.encrypt_iv ks.rnd ivs.(k) s) in
            match col with
            | Column.Ints a -> Array.mapi (fun k i -> enc k ("i" ^ string_of_int i)) a
            | Column.Dates a -> Array.mapi (fun k d -> enc k ("d" ^ string_of_int d)) a
            | Column.Floats a -> Array.mapi (fun k f -> enc k ("f" ^ hex_float f)) a
            | Column.Bools a ->
                Array.mapi (fun k b -> enc k (if b then "b1" else "b0")) a
            | Column.Strs a -> Array.mapi (fun k s -> enc k ("s" ^ s)) a
            | Column.Values a ->
                Array.mapi
                  (fun k v ->
                    match v with
                    | Value.Null -> Value.Null
                    | Value.Enc _ -> already ()
                    | v -> enc k (serialize v))
                  a)
        | C.Scheme.Ope -> (
            (* one sorted tree walk per column: each partition-tree node's
               PRF runs once however many values pass through it *)
            let encode = C.Ope.encode_array ks.ope in
            let pack c tag tail =
              mk (C.Ope.bytes_of_cipher c ^ String.make 1 tag ^ tail)
            in
            let numeric tag images =
              Array.map (fun c -> pack c tag "") (encode images)
            in
            match col with
            | Column.Ints a ->
                numeric 'i' (Array.map (fun i -> ope_guard (int_cents i)) a)
            | Column.Dates a ->
                numeric 'd' (Array.map (fun d -> ope_guard (int_cents d)) a)
            | Column.Bools a ->
                numeric 'b' (Array.map (fun b -> if b then 100 else 0) a)
            | Column.Floats a ->
                let cs = encode (Array.map (fun f -> ope_guard (cents f)) a) in
                Array.mapi
                  (fun k f -> pack cs.(k) 'f' (ope_tail ks (Value.Float f)))
                  a
            | Column.Strs a ->
                let cs = encode (Array.map str_prefix a) in
                Array.mapi
                  (fun k s -> pack cs.(k) 's' (C.Det.encrypt ks.det ("s" ^ s)))
                  a
            | Column.Values a ->
                (* gather the non-null cells' images in row order (so
                   errors surface in row order), encode, scatter back *)
                let live =
                  List.filter
                    (fun k -> not (is_null_cell col k))
                    (List.init (Array.length a) Fun.id)
                  |> Array.of_list
                in
                let images =
                  Array.map
                    (fun k ->
                      match a.(k) with
                      | Value.Enc _ ->
                          err "attribute %s is already encrypted"
                            (Attr.name attr)
                      | v -> ope_image v)
                    live
                in
                let cs = encode (Array.map fst images) in
                let out = Array.make (Array.length a) Value.Null in
                Array.iteri
                  (fun j k ->
                    out.(k) <- pack cs.(j) (snd images.(j)) (ope_tail ks a.(k)))
                  live;
                out)
        | C.Scheme.Phe -> (
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
            | Column.Ints a -> Array.mapi (fun k i -> enc k (int_cents i) 'i') a
            | Column.Dates a -> Array.mapi (fun k d -> enc k (int_cents d) 'd') a
            | Column.Bools a ->
                Array.mapi (fun k b -> enc k (if b then 100 else 0) 'b') a
            | Column.Floats a -> Array.mapi (fun k f -> enc k (cents f) 'f') a
            | Column.Strs _ ->
                err "no additive image for attribute %s (string)"
                  (Attr.name attr)
            | Column.Values a ->
                Array.mapi
                  (fun k v ->
                    match v with
                    | Value.Null -> Value.Null
                    | Value.Enc _ -> already ()
                    | v ->
                        let img, tag = phe_image v in
                        enc k img tag)
                  a)
      in
      Column.Values out)
    enc

(* --- decryption ------------------------------------------------------ *)

let decrypt_gen ctx ~coder (c : Value.cipher) =
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
      let pk, sk = C.Keyring.paillier ctx.keyring in
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

let plain_coder _key_id (ks : keys) bytes = C.Ope.decrypt_bytes ks.ope bytes
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

let decrypt_batch ctx col =
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

(* --- constants in dispatched conditions ----------------------------- *)

let const_cipher_uncached ctx (sample : Value.cipher) const =
  let cluster = cluster_by_id ctx sample.Value.key_id in
  (* A derived generator keeps this function pure: the comparable schemes
     (det, ope) draw no randomness anyway, and rnd/phe constants only get
     built on the way to an "unsupported comparison" error — but touching
     the shared stream here would make predicate evaluation unsafe to run
     on several domains. *)
  let rng = C.Keyring.derived_rng ctx.keyring "const" in
  match C.Scheme.of_name sample.Value.scheme with
  | Some scheme when scheme = cluster.Authz.Plan_keys.scheme ->
      encrypt_with ~rng ctx cluster const
  | Some scheme ->
      (* ciphertext produced under a different scheme than the cluster's
         current one: re-derive with the observed scheme *)
      encrypt_with ~rng ctx
        { cluster with Authz.Plan_keys.scheme }
        const
  | None -> err "unknown scheme %s" sample.Value.scheme

let const_cipher ctx (sample : Value.cipher) const =
  (* The uncached function is deterministic (fresh derived generator per
     call), so a cache hit returns exactly the bytes a recompute would;
     racing misses compute duplicates outside the lock, harmlessly. *)
  let key = (sample.Value.key_id, sample.Value.scheme, const) in
  let cached =
    Mutex.lock ctx.consts_mu;
    let r = Hashtbl.find_opt ctx.consts key in
    Mutex.unlock ctx.consts_mu;
    r
  in
  match cached with
  | Some v -> v
  | None ->
      let v = const_cipher_uncached ctx sample const in
      Mutex.lock ctx.consts_mu;
      if not (Hashtbl.mem ctx.consts key) then Hashtbl.add ctx.consts key v;
      Mutex.unlock ctx.consts_mu;
      v

(* --- homomorphic aggregation ---------------------------------------- *)

let phe_sum ctx values ~avg =
  let pk, _ = C.Keyring.paillier ctx.keyring in
  let parse v =
    match v with
    | Value.Enc c when c.Value.scheme = "phe" -> (
        match String.split_on_char '|' c.Value.payload with
        | [ "v"; cipher; tag ] -> Some (c, C.Bignum.of_string cipher, tag.[0])
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
