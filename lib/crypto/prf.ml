type t = Speck.key

let create key = Speck.expand_key key

let byte b i stop = if i < stop then Char.code (Bytes.unsafe_get b i) else 0

(* little-endian 32-bit load of b[p, p+4), zero past [stop] *)
let word b p stop =
  if p + 4 <= stop then
    Char.code (Bytes.unsafe_get b p)
    lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (p + 3)) lsl 24)
  else
    byte b p stop
    lor (byte b (p + 1) stop lsl 8)
    lor (byte b (p + 2) stop lsl 16)
    lor (byte b (p + 3) stop lsl 24)

(* CBC-MAC tag of b[off, off+len). Prefix-free: the first block encodes
   the message length; blocks are little-endian 8-byte loads, the last
   one zero-padded. *)
let cbc_mac t b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Prf: message range out of bounds";
  let st = { Speck.hi = len lsr 32; lo = len land 0xFFFFFFFF } in
  Speck.encrypt_in_place t st;
  let stop = off + len in
  let p = ref off in
  while !p < stop do
    st.lo <- st.lo lxor word b !p stop;
    st.hi <- st.hi lxor word b (!p + 4) stop;
    Speck.encrypt_in_place t st;
    p := !p + 8
  done;
  st

let mac_sub t b off len = Speck.int64_of_block (cbc_mac t b off len)

let mac t msg = mac_sub t (Bytes.unsafe_of_string msg) 0 (String.length msg)

let mac_bytes t msg =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (mac t msg);
  Bytes.unsafe_to_string b

let expand t label n =
  let buf = Buffer.create n in
  let i = ref 0 in
  while Buffer.length buf < n do
    Buffer.add_string buf (mac_bytes t (label ^ "\x00" ^ string_of_int !i));
    incr i
  done;
  String.sub (Buffer.contents buf) 0 n

(* the tag shifted right by 2, i.e. its top 62 bits, taken mod [bound] *)
let int_below_sub t b off len bound =
  if bound <= 0 then invalid_arg "Prf.int_below: bound must be positive";
  let st = cbc_mac t b off len in
  ((st.hi lsl 30) lor (st.lo lsr 2)) mod bound

let int_below t label bound =
  int_below_sub t (Bytes.unsafe_of_string label) 0 (String.length label) bound
