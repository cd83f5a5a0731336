(* Crypto substrate: bignum arithmetic laws, block-cipher and mode
   round trips, tamper detection, OPE order preservation, Paillier
   homomorphism, PRF determinism, keyring derivation; known-answer
   vectors pinning every symmetric ciphertext byte, and the column
   kernels checked against the per-value reference implementations. *)

open Mpq_crypto

let rng () = Prng.create 0xC0FFEEL
let key16 seed = Prng.bytes (Prng.create seed) 16

(* --- Bignum ----------------------------------------------------------- *)

let bn = Alcotest.testable Bignum.pp Bignum.equal

let test_bignum_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Bignum.to_string (Bignum.of_string s)))
    [ "0"; "1"; "-1"; "123456789"; "123456789012345678901234567890";
      "-98765432109876543210987654321" ]

let test_bignum_int_roundtrip () =
  List.iter
    (fun i ->
      Alcotest.(check (option int))
        (string_of_int i) (Some i)
        (Bignum.to_int_opt (Bignum.of_int i)))
    [ 0; 1; -1; max_int / 2; min_int / 2; 42 ]

let test_bignum_add_sub () =
  let a = Bignum.of_string "999999999999999999999999" in
  let b = Bignum.of_string "1" in
  Alcotest.check bn "a+b"
    (Bignum.of_string "1000000000000000000000000")
    (Bignum.add a b);
  Alcotest.check bn "a-a" Bignum.zero (Bignum.sub a a);
  Alcotest.check bn "a + (-a)" Bignum.zero (Bignum.add a (Bignum.neg a))

let test_bignum_mul_pow () =
  Alcotest.check bn "10^24"
    (Bignum.of_string "1000000000000000000000000")
    (Bignum.pow (Bignum.of_int 10) 24);
  Alcotest.check bn "(2^62)^2 = 2^124"
    (Bignum.shift_left Bignum.one 124)
    (Bignum.mul (Bignum.shift_left Bignum.one 62) (Bignum.shift_left Bignum.one 62))

let test_bignum_divmod_euclidean () =
  let check a b =
    let a = Bignum.of_int a and b = Bignum.of_int b in
    let q, r = Bignum.divmod a b in
    Alcotest.(check bool) "a = q*b + r" true
      (Bignum.equal a (Bignum.add (Bignum.mul q b) r));
    Alcotest.(check bool) "0 <= r < |b|" true
      (Bignum.sign r >= 0 && Bignum.compare r (Bignum.abs b) < 0)
  in
  List.iter
    (fun (a, b) -> check a b)
    [ (17, 5); (-17, 5); (17, -5); (-17, -5); (0, 3); (4, 4) ]

let test_bignum_gcd_invmod () =
  Alcotest.check bn "gcd(54,24)" (Bignum.of_int 6)
    (Bignum.gcd (Bignum.of_int 54) (Bignum.of_int 24));
  let n = Bignum.of_int 97 in
  for a = 1 to 96 do
    match Bignum.invmod (Bignum.of_int a) n with
    | Some inv ->
        Alcotest.check bn
          (Printf.sprintf "%d * inv mod 97" a)
          Bignum.one
          (Bignum.rem (Bignum.mul (Bignum.of_int a) inv) n)
    | None -> Alcotest.failf "no inverse for %d mod 97" a
  done

let test_bignum_mod_pow_fermat () =
  (* Fermat: a^(p-1) = 1 mod p for prime p *)
  let p = Bignum.of_int 1000003 in
  List.iter
    (fun a ->
      Alcotest.check bn
        (Printf.sprintf "%d^(p-1) mod p" a)
        Bignum.one
        (Bignum.mod_pow ~base:(Bignum.of_int a) ~exp:(Bignum.pred p) ~modulus:p))
    [ 2; 3; 65537 ]

let test_bignum_primality () =
  let r = rng () in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool)
        (string_of_int n) expect
        (Bignum.is_probable_prime r (Bignum.of_int n)))
    [ (2, true); (3, true); (4, false); (561, false) (* Carmichael *);
      (7919, true); (7917, false); (1000003, true) ]

let test_bignum_random_prime_bits () =
  let r = rng () in
  List.iter
    (fun bits ->
      let p = Bignum.random_prime r bits in
      Alcotest.(check int) "bit length" bits (Bignum.bit_length p);
      Alcotest.(check bool) "prime" true (Bignum.is_probable_prime r p))
    [ 16; 32; 64 ]

let test_bignum_bytes_roundtrip () =
  let r = rng () in
  for _ = 1 to 50 do
    let v = Bignum.random_bits r (1 + Prng.int r 200) in
    Alcotest.check bn "bytes roundtrip" v
      (Bignum.of_bytes_be (Bignum.to_bytes_be v))
  done

let prop_bignum_ring =
  QCheck.Test.make ~count:500 ~name:"ring laws on 128-bit values"
    QCheck.(make Gen.(pair (pair int int) (pair int int)))
    (fun ((a, b), (c, _)) ->
      let x = Bignum.mul (Bignum.of_int a) (Bignum.of_int c) in
      let y = Bignum.of_int b in
      let z = Bignum.of_int c in
      (* (x + y) + z = x + (y + z), x*(y+z) = x*y + x*z *)
      Bignum.equal
        (Bignum.add (Bignum.add x y) z)
        (Bignum.add x (Bignum.add y z))
      && Bignum.equal
           (Bignum.mul x (Bignum.add y z))
           (Bignum.add (Bignum.mul x y) (Bignum.mul x z)))

let prop_bignum_divmod =
  QCheck.Test.make ~count:500 ~name:"divmod invariant on random values"
    QCheck.(make Gen.(pair (int_range 0 300) (int_range 1 200)))
    (fun (abits, bbits) ->
      let r = Prng.create (Int64.of_int ((abits * 1000) + bbits)) in
      let a = Bignum.random_bits r abits in
      let b = Bignum.succ (Bignum.random_bits r bbits) in
      let q, rm = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) rm)
      && Bignum.sign rm >= 0
      && Bignum.compare rm b < 0)

(* --- Speck / PRF ------------------------------------------------------ *)

let test_speck_roundtrip () =
  let k = Speck.expand_key (key16 1L) in
  List.iter
    (fun v ->
      Alcotest.(check int64) (Int64.to_string v) v
        (Speck.decrypt_block k (Speck.encrypt_block k v)))
    [ 0L; 1L; -1L; 0x0123456789ABCDEFL; Int64.min_int; Int64.max_int ]

let test_speck_key_sensitivity () =
  let k1 = Speck.expand_key (key16 1L) in
  let k2 = Speck.expand_key (key16 2L) in
  Alcotest.(check bool) "different keys differ" false
    (Speck.encrypt_block k1 42L = Speck.encrypt_block k2 42L)

let test_prf_deterministic () =
  let p = Prf.create (key16 3L) in
  Alcotest.(check int64) "same input same mac" (Prf.mac p "hello")
    (Prf.mac p "hello");
  Alcotest.(check bool) "prefix-free" false
    (Prf.mac p "ab" = Prf.mac p "ab\x00")

let test_prf_expand_length () =
  let p = Prf.create (key16 4L) in
  List.iter
    (fun n ->
      Alcotest.(check int) (string_of_int n) n
        (String.length (Prf.expand p "label" n)))
    [ 1; 8; 16; 33; 100 ]

(* --- Det / Rnd -------------------------------------------------------- *)

let test_det_roundtrip_and_determinism () =
  let k = Det.key_of_string (key16 5L) in
  List.iter
    (fun m -> Alcotest.(check string) "roundtrip" m (Det.decrypt k (Det.encrypt k m)))
    [ ""; "x"; "hello world"; String.make 1000 'z' ];
  Alcotest.(check string) "deterministic" (Det.encrypt k "abc") (Det.encrypt k "abc");
  Alcotest.(check bool) "key separation" false
    (Det.encrypt k "abc" = Det.encrypt (Det.key_of_string (key16 6L)) "abc")

let test_det_tamper_detected () =
  let k = Det.key_of_string (key16 5L) in
  let c = Det.encrypt k "attack at dawn" in
  let c' = Bytes.of_string c in
  Bytes.set c' (String.length c - 1)
    (Char.chr (Char.code (Bytes.get c' (String.length c - 1)) lxor 1));
  Alcotest.check_raises "tamper" (Failure "Det.decrypt: authentication failure")
    (fun () -> ignore (Det.decrypt k (Bytes.to_string c')))

let test_rnd_roundtrip_and_randomness () =
  let k = Rnd.key_of_string (key16 7L) in
  let r = rng () in
  List.iter
    (fun m ->
      Alcotest.(check string) "roundtrip" m (Rnd.decrypt k (Rnd.encrypt k r m)))
    [ ""; "x"; "some plaintext"; String.make 500 'q' ];
  Alcotest.(check bool) "two encryptions differ" false
    (Rnd.encrypt k r "same" = Rnd.encrypt k r "same")

let test_rnd_tamper_detected () =
  let k = Rnd.key_of_string (key16 7L) in
  let c = Rnd.encrypt k (rng ()) "money" in
  let c' = Bytes.of_string c in
  Bytes.set c' 9 (Char.chr (Char.code (Bytes.get c' 9) lxor 0x80));
  Alcotest.check_raises "tamper" (Failure "Rnd.decrypt: authentication failure")
    (fun () -> ignore (Rnd.decrypt k (Bytes.to_string c')))

(* --- OPE --------------------------------------------------------------- *)

let prop_ope_roundtrip =
  QCheck.Test.make ~count:300 ~name:"OPE decrypt inverts encrypt"
    QCheck.(int_range (-1_000_000_000) 1_000_000_000)
    (fun v ->
      let k = Ope.key_of_string (key16 8L) in
      Ope.decrypt k (Ope.encrypt k v) = v)

let prop_ope_order =
  QCheck.Test.make ~count:300 ~name:"OPE preserves strict order"
    QCheck.(pair (int_range (-1_000_000) 1_000_000) (int_range (-1_000_000) 1_000_000))
    (fun (a, b) ->
      let k = Ope.key_of_string (key16 8L) in
      if a = b then Ope.encrypt k a = Ope.encrypt k b
      else if a < b then Ope.encrypt k a < Ope.encrypt k b
      else Ope.encrypt k a > Ope.encrypt k b)

let prop_ope_bytes_order =
  QCheck.Test.make ~count:300 ~name:"OPE byte encoding compares like values"
    QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (a, b) ->
      let k = Ope.key_of_string (key16 8L) in
      compare a b = compare (Ope.encrypt_bytes k a) (Ope.encrypt_bytes k b))

let test_ope_domain_check () =
  let k = Ope.key_of_string (key16 8L) in
  Alcotest.check_raises "out of domain"
    (Invalid_argument "Ope.encrypt: 1099511627776 out of domain") (fun () ->
      ignore (Ope.encrypt k (1 lsl 40)))

(* --- known answers ------------------------------------------------------ *)

(* Published Speck64/128 vector (Beaulieu et al.): key words
   1b1a1918 13121110 0b0a0908 03020100, plaintext 3b726574 7475432d. *)
let test_speck_known_answer () =
  let key =
    String.init 16 (fun i -> Char.chr ((i land 3) + (8 * (i / 4))))
  in
  Alcotest.(check int64) "speck64/128 vector" 0x8c6fa548454e028bL
    (Speck.encrypt_block (Speck.expand_key key) 0x3b7265747475432dL)

let hex s =
  String.to_seq s
  |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
  |> List.of_seq |> String.concat ""

let msg n = String.init n (fun i -> Char.chr (((i * 37) + 11) land 255))

(* Golden outputs: message lengths 0, 1, 7, 8, 9, 16, 17 and 100 cover
   the empty message, partial, exact and multi-block boundaries. Any
   change to these bytes changes every stored ciphertext. *)
let golden_mac =
  [ (0, 0x7695d4756da1b9c2L); (1, 0x413e8b77dc96c79eL);
    (7, 0x5ebe7b21507022d3L); (8, 0xe2e453e61bfcd577L);
    (9, 0x451b3e6853333fe0L); (16, 0xe7fc8e0a4016bf9aL);
    (17, 0x508ebef9cc36307aL); (100, 0x4de225721cb7196bL) ]

let golden_det =
  [ (0, "aaddf7040e4f5854");
    (1, "1af5bae0a9627ab1f1");
    (7, "15d95e31c7c57459112d4cfe4a376c");
    (8, "ee2f76fcf05331adc81a4b5014723a7c");
    (9, "ef212154c0ed3ddb37ea99dd13bc7dee27");
    (16, "7f8121515303ae42d7b2dfee7ec0c467b76a625c97647d92");
    (17, "c3e73969ddcbca25b3ec45f12beeba59ef360e4b0bc73d586d");
    ( 100,
      "751a6b7aec298df5088c6af5e55249acc9328f6383982b9fb6adf1104b894a05862b76896d70db1240103160133411891bb68230d5195fcb37e31e3396dc8ee76678d15fd6c14839cf6c9c34f7c3bf3390f631e3096071f4216111b4e4487954d8d0670e4f923911d2743c5e"
    ) ]

let golden_rnd =
  [ (0x00000000ffffffffL, 0, "ffffffff000000000119812561be8353");
    (0x00000000ffffffffL, 1, "ffffffff000000004d0f2bfb754b5f215d");
    (0x00000000ffffffffL, 7, "ffffffff000000004d9886b525f0bf9dbddfabb9738268");
    (0x00000000ffffffffL, 8, "ffffffff000000004d9886b525f0bfe1a5a61309b87b36e4");
    (0x00000000ffffffffL, 9, "ffffffff000000004d9886b525f0bfe156c3f79d4b3d82adef");
    ( 0x00000000ffffffffL, 16,
      "ffffffff000000004d9886b525f0bfe156fd4009d75c02a847fefc4c943efa7d" );
    ( 0x00000000ffffffffL, 17,
      "ffffffff000000004d9886b525f0bfe156fd4009d75c02a821dac1608c8918b323" );
    ( 0x00000000ffffffffL, 100,
      "ffffffff000000004d9886b525f0bfe156fd4009d75c02a8212c38da06fce2304c12f7cde3d41fc7d90d4bec5ac7728a708d580368ac284636ce9369d82f609b996fe679fce693c5c0dbc27d4ace9d49f12e210849ea76b0d6099162eaa3192f6fafd961a2f050b80b00c21e83e548870440f3b9"
    );
    (-1L, 0, "ffffffffffffffffe78fa86768de95fa");
    (-1L, 1, "ffffffffffffffffd80e1d012d4919d2e8");
    (-1L, 7, "ffffffffffffffffd8a90754697446081d08e166e1132a");
    (-1L, 8, "ffffffffffffffffd8a90754697446d830f983b77a23091f");
    (-1L, 9, "ffffffffffffffffd8a90754697446d817f0c74b43d7596974");
    ( -1L, 16,
      "ffffffffffffffffd8a90754697446d817d9f3ea33fdc909c3e6e40ba93b88e2" );
    ( -1L, 17,
      "ffffffffffffffffd8a90754697446d817d9f3ea33fdc909e11619e9da93ba725b" );
    ( -1L, 100,
      "ffffffffffffffffd8a90754697446d817d9f3ea33fdc909e146e683d6ea2908d864fa666906227fdcab95e179bf0dd8cc5cf07d9bfd5cc38f25a051779198d531c04089105e10b13becb1b164735a8b3cd7d700dbe42032068f140f1df0e3ab4d40f0452152cba8fa9c0101a01b6eceef0fb161"
    );
    (0x0123456789abcdefL, 0, "efcdab8967452301a695669270bb702e");
    (0x0123456789abcdefL, 1, "efcdab8967452301f7e7415a28ca07fd97");
    (0x0123456789abcdefL, 7, "efcdab8967452301f7bf616578ae57232335f22d4cb1bb");
    (0x0123456789abcdefL, 8, "efcdab8967452301f7bf616578ae57c2b8dc2ed9049784b5");
    (0x0123456789abcdefL, 9, "efcdab8967452301f7bf616578ae57c208e36dee7a29036847");
    ( 0x0123456789abcdefL, 16,
      "efcdab8967452301f7bf616578ae57c208d7e0e09dc4615e5dc21ae2230ece3f" );
    ( 0x0123456789abcdefL, 17,
      "efcdab8967452301f7bf616578ae57c208d7e0e09dc4615e7c1adb9f7cb1016107" );
    ( 0x0123456789abcdefL, 100,
      "efcdab8967452301f7bf616578ae57c208d7e0e09dc4615e7c056f001e5119ed1beabbeda092fb077d8ab4b77b6c4e5863456be441a79560789aa0adfe040fa4a00bf1d8a0ac08018755983d6d845dbf4c20635dd7aa15edd77c99952ee06c7cf0b33d02df35cb1e57fc0bab3cc4cbd3f44f568c"
    ) ]

let golden_ope =
  [ (-549755813888, 32); (-549755813887, 4265);
    (-50000000000, 24036442780332377); (-1, 30028941929617402);
    (0, 30028941929617403); (1, 30028941929617404);
    (100, 30028941929672348); (12345, 30028941956010676);
    (500000000000, 36009171015787603); (549755813887, 36028797018963967) ]

let test_golden_prf () =
  let p = Prf.create (key16 3L) in
  List.iter
    (fun (n, tag) ->
      let name = Printf.sprintf "mac len %d" n in
      Alcotest.(check int64) name tag (Prf.mac p (msg n));
      let le = Bytes.create 8 in
      Bytes.set_int64_le le 0 tag;
      Alcotest.(check string) name (Bytes.to_string le) (Prf.mac_bytes p (msg n)))
    golden_mac;
  List.iter
    (fun (label, bound, expect) ->
      Alcotest.(check int) (Printf.sprintf "int_below %S %d" label bound) expect
        (Prf.int_below p label bound))
    [ ("", 1, 0);
      ("node:0:1099511627775:0:36028797018963967", 36028797018962944,
       28563553968374987);
      ("leaf:42", 1000, 995); ("x", 7, 1);
      (msg 9, 1 lsl 61, 1244910607695400952); (msg 17, 12345, 5518) ]

let test_golden_det_rnd () =
  let d = Det.key_of_string (key16 5L) in
  List.iter
    (fun (n, c) ->
      Alcotest.(check string)
        (Printf.sprintf "det len %d" n)
        c
        (hex (Det.encrypt d (msg n))))
    golden_det;
  let r = Rnd.key_of_string (key16 7L) in
  List.iter
    (fun (iv, n, c) ->
      Alcotest.(check string)
        (Printf.sprintf "rnd iv %Lx len %d" iv n)
        c
        (hex (Rnd.encrypt_iv r iv (msg n))))
    golden_rnd

let test_golden_ope () =
  let k = Ope.key_of_string (key16 8L) in
  List.iter
    (fun (x, c) ->
      Alcotest.(check int) (Printf.sprintf "ope %d" x) c (Ope.encrypt k x);
      Alcotest.(check int) (Printf.sprintf "ope^-1 %d" c) x (Ope.decrypt k c))
    golden_ope;
  Alcotest.(check (array int))
    "encode_array"
    (Array.of_list (List.map snd golden_ope))
    (Ope.encode_array k (Array.of_list (List.map fst golden_ope)))

(* --- differential: kernels against the reference implementations ------ *)

(* The Int64-keystream CTR mode that [Speck.ctr_xor] replaced, kept
   here as its reference. *)
let ref_keystream enc iv len =
  let buf = Buffer.create len in
  let i = ref 0 in
  while Buffer.length buf < len do
    let block = Speck.encrypt_block enc (Int64.add iv (Int64.of_int !i)) in
    for b = 0 to 7 do
      if Buffer.length buf < len then
        Buffer.add_char buf
          (Char.chr
             (Int64.to_int
                (Int64.logand (Int64.shift_right_logical block (8 * b)) 255L)))
    done;
    incr i
  done;
  Buffer.contents buf

let ref_ctr enc iv s =
  let ks = ref_keystream enc iv (String.length s) in
  String.mapi (fun i c -> Char.chr (Char.code c lxor Char.code ks.[i])) s

let ctr_xor enc iv s =
  let n = String.length s in
  let out = Bytes.make (n + 5) '#' in
  Speck.ctr_xor enc iv ("..." ^ s) 3 out 2 n;
  Alcotest.(check string) "bytes outside the range untouched" "##"
    (Bytes.sub_string out 0 2);
  Alcotest.(check string) "bytes outside the range untouched" "###"
    (Bytes.sub_string out (n + 2) 3);
  Bytes.sub_string out 2 n

let test_ctr_carry () =
  (* the split-word counter must carry lo -> hi and wrap at 2^64 *)
  let enc = Speck.expand_key (key16 9L) in
  List.iter
    (fun iv ->
      for n = 0 to 40 do
        let m = msg n in
        Alcotest.(check string)
          (Printf.sprintf "iv %Lx len %d" iv n)
          (hex (ref_ctr enc iv m)) (hex (ctr_xor enc iv m))
      done)
    [ 0x00000000FFFFFFFFL; -1L; 0xFFFFFFFEFFFFFFFEL; 0L ]

let prop_ctr_xor =
  QCheck.Test.make ~count:200 ~name:"ctr_xor == Int64 keystream"
    QCheck.(pair int64 (string_of_size (Gen.int_range 0 40)))
    (fun (iv, s) ->
      let enc = Speck.expand_key (key16 9L) in
      String.equal (ref_ctr enc iv s) (ctr_xor enc iv s))

(* [Prng.draw_into], which the rnd IV pass writes with, is the generator
   it stands for: the [draw]-th [next64] of [derive root row], for any
   parent state, row and draw (the parent advanced first, so the root is
   not a fresh seed's). *)
let prop_draw_into =
  QCheck.Test.make ~count:500 ~name:"draw_into == derive then next64"
    QCheck.(quad int64 (int_range 0 3) (int_range 0 1_000_000) (int_range 1 6))
    (fun (seed, advanced, row, draw) ->
      let root = Prng.create seed in
      for _ = 1 to advanced do
        ignore (Prng.next64 root)
      done;
      let g = Prng.derive root row in
      let want = ref 0L in
      for _ = 1 to draw do
        want := Prng.next64 g
      done;
      let b = Bytes.make 24 '\000' in
      Prng.draw_into root ~row ~draw b 8;
      Int64.equal (Bytes.get_int64_le b 8) !want
      && Bytes.equal (Bytes.sub b 0 8) (Bytes.make 8 '\000')
      && Bytes.equal (Bytes.sub b 16 8) (Bytes.make 8 '\000'))

(* The stateless per-value OPE the column kernel replaced: every level
   draws its PRF under a Printf label. *)
let ref_plain_size = 1 lsl 40
let ref_cipher_size = 1 lsl 55

let ref_split key plo phi clo chi =
  let pm = plo + ((phi - plo) / 2) in
  let nl = pm - plo + 1 and nr = phi - pm in
  let slack = chi - clo + 1 - (nl + nr) in
  let label = Printf.sprintf "node:%d:%d:%d:%d" plo phi clo chi in
  (pm, clo + nl + Prf.int_below key label (slack + 1) - 1)

let rec ref_enc key plo phi clo chi x =
  if plo = phi then
    clo + Prf.int_below key (Printf.sprintf "leaf:%d" plo) (chi - clo + 1)
  else
    let pm, cm = ref_split key plo phi clo chi in
    if x <= pm then ref_enc key plo pm clo cm x
    else ref_enc key (pm + 1) phi (cm + 1) chi x

let rec ref_dec key plo phi clo chi c =
  if plo = phi then plo
  else
    let pm, cm = ref_split key plo phi clo chi in
    if c <= cm then ref_dec key plo pm clo cm c
    else ref_dec key (pm + 1) phi (cm + 1) chi c

(* the reference sees the OPE key through the same derivation as [Ope] *)
let ope_prf seed = Prf.create (Prf.expand (Prf.create (key16 seed)) "ope" 16)

let ref_encrypt prf x =
  let v = x + (ref_plain_size / 2) in
  if v < 0 || v >= ref_plain_size then
    invalid_arg (Printf.sprintf "Ope.encrypt: %d out of domain" x);
  ref_enc prf 0 (ref_plain_size - 1) 0 (ref_cipher_size - 1) v

let ref_decrypt prf c =
  if c < 0 || c >= ref_cipher_size then
    invalid_arg (Printf.sprintf "Ope.decrypt: %d out of range" c);
  ref_dec prf 0 (ref_plain_size - 1) 0 (ref_cipher_size - 1) c
  - (ref_plain_size / 2)

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

let ope_lo = -(1 lsl 39) and ope_hi = (1 lsl 39) - 1

let gen_ope_column =
  QCheck.Gen.(
    let pool = [| -3; 0; 7; 100; ope_lo; ope_hi; 123_456_789 |] in
    let value =
      frequency
        [ (3, map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)));
          (3, int_range (-1000) 1000);
          (2, int_range ope_lo ope_hi);
          (1, oneofl [ ope_lo + 1; ope_hi - 1 ]) ]
    in
    frequency
      [ (1, return [||]); (1, map (fun x -> [| x |]) value);
        (6, array_size (int_range 2 24) value) ])

let arb_ope_column =
  QCheck.make ~print:QCheck.Print.(array int) gen_ope_column

let prop_encode_array =
  QCheck.Test.make ~count:200 ~name:"encode_array == map of the reference"
    arb_ope_column
    (fun xs ->
      let k = Ope.key_of_string (key16 10L) and prf = ope_prf 10L in
      Ope.encode_array k xs = Array.map (ref_encrypt prf) xs
      && Array.map (Ope.encrypt k) xs = Array.map (ref_encrypt prf) xs)

let prop_encode_array_domain =
  QCheck.Test.make ~count:100 ~name:"encode_array raises like the reference"
    QCheck.(
      pair arb_ope_column
        (pair small_nat (oneofl [ ope_lo - 1; ope_hi + 1; max_int; min_int ])))
    (fun (xs, (at, bad)) ->
      (* [bad] at a random position, and a second offender after it *)
      let at = at mod (Array.length xs + 1) in
      let xs =
        Array.concat
          [ Array.sub xs 0 at; [| bad |];
            Array.sub xs at (Array.length xs - at); [| ope_hi + 2 |] ]
      in
      let k = Ope.key_of_string (key16 10L) and prf = ope_prf 10L in
      let got = outcome (fun () -> Ope.encode_array k xs) in
      got = outcome (fun () -> Array.map (ref_encrypt prf) xs)
      && got = Error (Printf.sprintf "Ope.encrypt: %d out of domain" bad))

let prop_decode_array =
  QCheck.Test.make ~count:100 ~name:"decode_array == map of the reference"
    QCheck.(
      pair arb_ope_column
        (array_of_size (Gen.int_range 0 6) (int_range 0 (ref_cipher_size - 1))))
    (fun (xs, raw) ->
      (* images of real plaintexts plus arbitrary in-range ciphertexts *)
      let k = Ope.key_of_string (key16 10L) and prf = ope_prf 10L in
      let cs = Array.append (Ope.encode_array k xs) raw in
      Ope.decode_array k cs = Array.map (ref_decrypt prf) cs
      && Array.sub (Ope.decode_array k cs) 0 (Array.length xs) = xs
      && outcome (fun () ->
             Ope.decode_array k (Array.append cs [| -1; ref_cipher_size |]))
         = Error "Ope.decrypt: -1 out of range")

(* --- Paillier ----------------------------------------------------------- *)

let test_paillier_roundtrip () =
  let r = rng () in
  let pk, sk = Paillier.keygen ~bits:192 r in
  List.iter
    (fun m ->
      let m = Bignum.of_int m in
      Alcotest.check bn "roundtrip" m
        (Paillier.decrypt_signed pk sk (Paillier.encrypt pk r m)))
    [ 0; 1; -1; 123456; -987654; 100000000 ]

let prop_paillier_additive =
  let r = rng () in
  let pk, sk = Paillier.keygen ~bits:192 r in
  QCheck.Test.make ~count:50 ~name:"Paillier: dec(c1*c2) = m1+m2"
    QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (m1, m2) ->
      let c1 = Paillier.encrypt pk r (Bignum.of_int m1) in
      let c2 = Paillier.encrypt pk r (Bignum.of_int m2) in
      Bignum.equal
        (Paillier.decrypt_signed pk sk (Paillier.add pk c1 c2))
        (Bignum.of_int (m1 + m2)))

let prop_paillier_scalar =
  let r = rng () in
  let pk, sk = Paillier.keygen ~bits:192 r in
  QCheck.Test.make ~count:50 ~name:"Paillier: dec(c^k) = m*k"
    QCheck.(pair (int_range (-10000) 10000) (int_range 0 50))
    (fun (m, k) ->
      let c = Paillier.encrypt pk r (Bignum.of_int m) in
      Bignum.equal
        (Paillier.decrypt_signed pk sk (Paillier.mul_scalar pk c (Bignum.of_int k)))
        (Bignum.of_int (m * k)))

let test_paillier_probabilistic () =
  let r = rng () in
  let pk, _ = Paillier.keygen ~bits:192 r in
  Alcotest.(check bool) "ciphertexts differ" false
    (Bignum.equal
       (Paillier.encrypt pk r (Bignum.of_int 5))
       (Paillier.encrypt pk r (Bignum.of_int 5)))

(* --- Keyring / scheme --------------------------------------------------- *)

let test_keyring_cluster_separation () =
  let kr = Keyring.create ~seed:11L () in
  Alcotest.(check bool) "clusters get distinct secrets" false
    (Keyring.cluster_secret kr "SC" = Keyring.cluster_secret kr "P");
  Alcotest.(check string) "derivation is stable"
    (Keyring.cluster_secret kr "SC")
    (Keyring.cluster_secret kr "SC")

let test_wrong_keyring_rejected () =
  let k1 = Keyring.create ~seed:100L () and k2 = Keyring.create ~seed:200L () in
  let d1 = Keyring.det_key k1 "c" and d2 = Keyring.det_key k2 "c" in
  let c = Det.encrypt d1 "secret" in
  (match Det.decrypt d2 c with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "foreign keyring decrypted");
  (* OPE under different keyrings produces incomparable orderings: at
     least the decryption disagrees *)
  let o1 = Keyring.ope_key k1 "c" and o2 = Keyring.ope_key k2 "c" in
  Alcotest.(check bool) "ope keys differ" true
    (Ope.decrypt o2 (Ope.encrypt o1 12345) <> 12345
    || Ope.encrypt o1 12345 <> Ope.encrypt o2 12345)

let test_scheme_selection () =
  let open Scheme in
  Alcotest.(check (option string)) "no ops -> rnd" (Some "rnd")
    (Option.map name (strongest_supporting []));
  Alcotest.(check (option string)) "equality -> det" (Some "det")
    (Option.map name (strongest_supporting [ Cap_equality ]));
  Alcotest.(check (option string)) "order -> ope" (Some "ope")
    (Option.map name (strongest_supporting [ Cap_order ]));
  Alcotest.(check (option string)) "addition -> phe" (Some "phe")
    (Option.map name (strongest_supporting [ Cap_addition ]));
  Alcotest.(check (option string)) "eq+order -> ope" (Some "ope")
    (Option.map name (strongest_supporting [ Cap_equality; Cap_order ]));
  Alcotest.(check (option string)) "order+addition impossible" None
    (Option.map name (strongest_supporting [ Cap_order; Cap_addition ]))

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "crypto"
    [ ( "bignum",
        [ ("string roundtrip", `Quick, test_bignum_string_roundtrip);
          ("int roundtrip", `Quick, test_bignum_int_roundtrip);
          ("add/sub", `Quick, test_bignum_add_sub);
          ("mul/pow", `Quick, test_bignum_mul_pow);
          ("euclidean divmod", `Quick, test_bignum_divmod_euclidean);
          ("gcd/invmod", `Quick, test_bignum_gcd_invmod);
          ("mod_pow (Fermat)", `Quick, test_bignum_mod_pow_fermat);
          ("primality", `Quick, test_bignum_primality);
          ("random primes", `Quick, test_bignum_random_prime_bits);
          ("bytes roundtrip", `Quick, test_bignum_bytes_roundtrip);
          q prop_bignum_ring; q prop_bignum_divmod ] );
      ( "speck-prf",
        [ ("speck roundtrip", `Quick, test_speck_roundtrip);
          ("speck key sensitivity", `Quick, test_speck_key_sensitivity);
          ("prf deterministic and prefix-free", `Quick, test_prf_deterministic);
          ("prf expand length", `Quick, test_prf_expand_length) ] );
      ( "det-rnd",
        [ ("det roundtrip/determinism", `Quick, test_det_roundtrip_and_determinism);
          ("det tamper detection", `Quick, test_det_tamper_detected);
          ("rnd roundtrip/randomness", `Quick, test_rnd_roundtrip_and_randomness);
          ("rnd tamper detection", `Quick, test_rnd_tamper_detected) ] );
      ( "ope",
        [ q prop_ope_roundtrip; q prop_ope_order; q prop_ope_bytes_order;
          ("domain check", `Quick, test_ope_domain_check) ] );
      ( "known-answer",
        [ ("speck64/128 published vector", `Quick, test_speck_known_answer);
          ("prf mac/int_below golden", `Quick, test_golden_prf);
          ("det/rnd golden", `Quick, test_golden_det_rnd);
          ("ope golden", `Quick, test_golden_ope) ] );
      ( "differential",
        [ ("ctr_xor carries and wraps like Int64.add", `Quick, test_ctr_carry);
          q prop_ctr_xor; q prop_draw_into; q prop_encode_array; q prop_encode_array_domain;
          q prop_decode_array ] );
      ( "paillier",
        [ ("roundtrip incl. negatives", `Quick, test_paillier_roundtrip);
          q prop_paillier_additive; q prop_paillier_scalar;
          ("probabilistic encryption", `Quick, test_paillier_probabilistic) ] );
      ( "keyring-scheme",
        [ ("cluster separation", `Quick, test_keyring_cluster_separation);
          ("foreign keyring rejected", `Quick, test_wrong_keyring_rejected);
          ("scheme selection rule", `Quick, test_scheme_selection) ] ) ]
