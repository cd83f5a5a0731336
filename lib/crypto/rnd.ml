type key = { mac : Prf.t; enc : Speck.key }

let key_of_string master =
  if String.length master <> 16 then
    invalid_arg "Rnd.key_of_string: need 16 bytes";
  let prf = Prf.create master in
  { mac = Prf.create (Prf.expand prf "rnd-mac" 16);
    enc = Speck.expand_key (Prf.expand prf "rnd-enc" 16) }

let encrypt_iv k iv plaintext =
  let len = String.length plaintext in
  let out = Bytes.create (len + 16) in
  Bytes.set_int64_le out 0 iv;
  Speck.ctr_xor k.enc iv plaintext 0 out 8 len;
  Bytes.set_int64_le out (len + 8) (Prf.mac_sub k.mac out 0 (len + 8));
  Bytes.unsafe_to_string out

let encrypt k rng plaintext = encrypt_iv k (Prng.next64 rng) plaintext

let decrypt k ciphertext =
  let n = String.length ciphertext in
  if n < 16 then invalid_arg "Rnd.decrypt: ciphertext too short";
  let tag = Prf.mac_sub k.mac (Bytes.unsafe_of_string ciphertext) 0 (n - 8) in
  if not (Int64.equal tag (String.get_int64_le ciphertext (n - 8))) then
    failwith "Rnd.decrypt: authentication failure";
  let out = Bytes.create (n - 16) in
  Speck.ctr_xor k.enc (String.get_int64_le ciphertext 0) ciphertext 8 out 0
    (n - 16);
  Bytes.unsafe_to_string out
