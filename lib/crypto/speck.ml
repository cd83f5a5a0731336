(* Speck64/128: 32-bit words, rotation constants alpha=8, beta=3,
   27 rounds, 4-word key. Words are OCaml ints masked to 32 bits, so the
   rounds allocate nothing; a 64-bit block is the word pair (hi, lo). *)

let rounds = 27
let mask = 0xFFFFFFFF

type key = int array (* round keys, length [rounds] *)
type block = { mutable hi : int; mutable lo : int }

let ror x n = ((x lsr n) lor (x lsl (32 - n))) land mask
let rol x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let word_of_string s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let expand_key k =
  if String.length k <> 16 then invalid_arg "Speck.expand_key: need 16 bytes";
  let k0 = word_of_string k 0 in
  let l = Array.make (rounds + 3) 0 in
  l.(0) <- word_of_string k 4;
  l.(1) <- word_of_string k 8;
  l.(2) <- word_of_string k 12;
  let ks = Array.make rounds 0 in
  ks.(0) <- k0;
  for i = 0 to rounds - 2 do
    l.(i + 3) <- ((ks.(i) + ror l.(i) 8) land mask) lxor i;
    ks.(i + 1) <- rol ks.(i) 3 lxor l.(i + 3)
  done;
  ks

let encrypt_in_place ks b =
  let x = ref b.hi and y = ref b.lo in
  for i = 0 to rounds - 1 do
    x := ((ror !x 8 + !y) land mask) lxor Array.unsafe_get ks i;
    y := rol !y 3 lxor !x
  done;
  b.hi <- !x;
  b.lo <- !y

let block_of_int64 v =
  { hi = Int64.to_int (Int64.shift_right_logical v 32);
    lo = Int64.to_int v land mask }

let int64_of_block b =
  Int64.logor (Int64.shift_left (Int64.of_int b.hi) 32) (Int64.of_int b.lo)

let encrypt_block ks v =
  let b = block_of_int64 v in
  encrypt_in_place ks b;
  int64_of_block b

let decrypt_block ks v =
  let b = block_of_int64 v in
  let x = ref b.hi and y = ref b.lo in
  for i = rounds - 1 downto 0 do
    y := ror (!y lxor !x) 3;
    (* modular subtraction on 32-bit words (negative ints mask correctly) *)
    x := ((!x lxor ks.(i)) - !y) land mask;
    x := rol !x 8
  done;
  b.hi <- !x;
  b.lo <- !y;
  int64_of_block b

(* Keystream block i is E(iv + i), serialized little-endian (lo word
   first); the counter is the split-word form of [Int64.add iv i]. *)
let ctr_xor ks iv src src_off dst dst_off len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off + len > String.length src
     || dst_off + len > Bytes.length dst
  then invalid_arg "Speck.ctr_xor";
  let ctr = block_of_int64 iv in
  let b = { hi = 0; lo = 0 } in
  let p = ref 0 in
  while !p < len do
    b.hi <- ctr.hi;
    b.lo <- ctr.lo;
    encrypt_in_place ks b;
    for j = 0 to min 8 (len - !p) - 1 do
      let w = if j < 4 then b.lo else b.hi in
      let k = (w lsr (8 * (j land 3))) land 255 in
      let i = !p + j in
      Bytes.unsafe_set dst (dst_off + i)
        (Char.unsafe_chr
           (Char.code (String.unsafe_get src (src_off + i)) lxor k))
    done;
    p := !p + 8;
    ctr.lo <- (ctr.lo + 1) land mask;
    if ctr.lo = 0 then ctr.hi <- (ctr.hi + 1) land mask
  done
