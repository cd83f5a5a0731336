type key = { mac : Prf.t; enc : Speck.key }

let key_of_string master =
  if String.length master <> 16 then
    invalid_arg "Det.key_of_string: need 16 bytes";
  let prf = Prf.create master in
  { mac = Prf.create (Prf.expand prf "det-mac" 16);
    enc = Speck.expand_key (Prf.expand prf "det-enc" 16) }

let encrypt k plaintext =
  let len = String.length plaintext in
  let iv = Prf.mac k.mac plaintext in
  let out = Bytes.create (8 + len) in
  Bytes.set_int64_le out 0 iv;
  Speck.ctr_xor k.enc iv plaintext 0 out 8 len;
  Bytes.unsafe_to_string out

let decrypt k ciphertext =
  let n = String.length ciphertext in
  if n < 8 then invalid_arg "Det.decrypt: ciphertext too short";
  let iv = String.get_int64_le ciphertext 0 in
  let out = Bytes.create (n - 8) in
  Speck.ctr_xor k.enc iv ciphertext 8 out 0 (n - 8);
  let plaintext = Bytes.unsafe_to_string out in
  if not (Int64.equal (Prf.mac k.mac plaintext) iv) then
    failwith "Det.decrypt: authentication failure";
  plaintext
