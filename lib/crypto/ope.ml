type key = Prf.t

let plain_bits = 40
let cipher_bits = 55
let plain_size = 1 lsl plain_bits (* 2^40 *)
let cipher_size = 1 lsl cipher_bits
let offset = plain_size / 2 (* signed -> unsigned shift *)

let key_of_string master =
  if String.length master <> 16 then
    invalid_arg "Ope.key_of_string: need 16 bytes";
  Prf.create (Prf.create master |> fun p -> Prf.expand p "ope" 16)

(* Recursive binary partition. Plain range [plo, phi] (inclusive) maps into
   cipher range [clo, chi]; invariant: chi - clo >= phi - plo. The pivot
   splits the plain range in half; the cipher split point is PRF-derived
   within the slack so that both halves keep enough room. A leaf's whole
   cipher slice belongs to its plaintext, which gets a PRF-chosen point
   inside it. The PRF labels are "node:plo:phi:clo:chi" and "leaf:plo".

   A coder writes those labels into a scratch buffer it owns, so it is
   single-domain; every entry point below makes its own. *)
type coder = { key : key; buf : Bytes.t (* longest label: 68 bytes *) }

let coder key = { key; buf = Bytes.create 80 }

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* writes [sep] then the decimal digits of [n >= 0] at [p]; returns the
   end position *)
let put buf p sep n =
  Bytes.set buf p sep;
  let stop = p + 1 + digits n in
  let q = ref n in
  for i = stop - 1 downto p + 1 do
    Bytes.set buf i (Char.unsafe_chr (48 + (!q mod 10)));
    q := !q / 10
  done;
  stop

let leaf_point t plo clo chi =
  Bytes.blit_string "leaf" 0 t.buf 0 4;
  let p = put t.buf 4 ':' plo in
  clo + Prf.int_below_sub t.key t.buf 0 p (chi - clo + 1)

let mid plo phi = plo + ((phi - plo) / 2)

(* cipher split point of an internal node: its left half maps into
   [clo, cm], its right half into [cm + 1, chi] *)
let split_point t plo phi clo chi =
  let pm = mid plo phi in
  let nl = pm - plo + 1 and nr = phi - pm in
  let slack = chi - clo + 1 - (nl + nr) in
  Bytes.blit_string "node" 0 t.buf 0 4;
  let p = put t.buf 4 ':' plo in
  let p = put t.buf p ':' phi in
  let p = put t.buf p ':' clo in
  let p = put t.buf p ':' chi in
  clo + nl + Prf.int_below_sub t.key t.buf 0 p (slack + 1) - 1

(* first index in [lo, hi + 1) whose point exceeds [x]; [u] ascending *)
let upper_bound u lo hi x =
  let lo = ref lo and hi = ref (hi + 1) in
  while !lo < !hi do
    let m = (!lo + !hi) / 2 in
    if u.(m) <= x then lo := m + 1 else hi := m
  done;
  !lo

(* One descent of the tree over the ascending distinct points u.(lo..hi),
   all inside this node: plaintexts when encoding, ciphertexts when
   decoding. Each visited node's PRF runs once, and a binary search
   splits the points between its halves; out.(i) gets u.(i)'s image. *)
let rec walk t ~enc u out plo phi clo chi lo hi =
  if lo <= hi then
    if plo = phi then
      if enc then out.(lo) <- leaf_point t plo clo chi (* lo = hi *)
      else Array.fill out lo (hi - lo + 1) plo
    else
      let pm = mid plo phi and cm = split_point t plo phi clo chi in
      let s = upper_bound u lo hi (if enc then pm else cm) in
      walk t ~enc u out plo pm clo cm lo (s - 1);
      walk t ~enc u out (pm + 1) phi (cm + 1) chi s hi

let map_points key ~enc points =
  let u = Array.copy points in
  Array.stable_sort Int.compare u;
  let m = ref 0 in
  Array.iteri
    (fun i x ->
      if i = 0 || x <> u.(!m - 1) then (
        u.(!m) <- x;
        incr m))
    u;
  let u = Array.sub u 0 !m in
  let out = Array.make !m 0 in
  walk (coder key) ~enc u out 0 (plain_size - 1) 0 (cipher_size - 1) 0 (!m - 1);
  Array.map (fun x -> out.(upper_bound u 0 (!m - 1) x - 1)) points

let encode_array key xs =
  map_points key ~enc:true
    (Array.map
       (fun x ->
         let v = x + offset in
         if v < 0 || v >= plain_size then
           invalid_arg (Printf.sprintf "Ope.encrypt: %d out of domain" x);
         v)
       xs)

let decode_array key cs =
  Array.iter
    (fun c ->
      if c < 0 || c >= cipher_size then
        invalid_arg (Printf.sprintf "Ope.decrypt: %d out of range" c))
    cs;
  Array.map (fun v -> v - offset) (map_points key ~enc:false cs)

let encrypt key x = (encode_array key [| x |]).(0)
let decrypt key c = (decode_array key [| c |]).(0)

let cipher_bytes = (cipher_bits + 7) / 8

let bytes_of_cipher c =
  String.init cipher_bytes (fun i ->
      Char.chr ((c lsr (8 * (cipher_bytes - 1 - i))) land 255))

let encrypt_bytes key x = bytes_of_cipher (encrypt key x)

let cipher_of_bytes s =
  if String.length s <> cipher_bytes then
    invalid_arg "Ope.decrypt_bytes: bad width";
  let c = ref 0 in
  String.iter (fun ch -> c := (!c lsl 8) lor Char.code ch) s;
  !c

let decrypt_bytes key s = decrypt key (cipher_of_bytes s)
