type public = { n : Bignum.t; n2 : Bignum.t; mont : Bignum.Mont.ctx }
type secret = { lambda : Bignum.t; mu : Bignum.t }

let keygen ?(bits = 256) rng =
  let half = bits / 2 in
  let rec distinct_primes () =
    let p = Bignum.random_prime rng half in
    let q = Bignum.random_prime rng (bits - half) in
    if Bignum.equal p q then distinct_primes () else (p, q)
  in
  let p, q = distinct_primes () in
  let n = Bignum.mul p q in
  let n2 = Bignum.mul n n in
  let lambda = Bignum.lcm (Bignum.pred p) (Bignum.pred q) in
  (* g = n + 1, so g^lambda mod n^2 = 1 + lambda*n, and
     L(g^lambda) = lambda; mu = lambda^{-1} mod n. *)
  let mu =
    match Bignum.invmod lambda n with
    | Some m -> m
    | None -> failwith "Paillier.keygen: lambda not invertible"
  in
  (* n is a product of odd primes, so n^2 is odd and Montgomery-friendly *)
  ({ n; n2; mont = Bignum.Mont.create n2 }, { lambda; mu })

let encode pk m =
  (* signed encoding into [0, n) *)
  if Bignum.sign m >= 0 then Bignum.rem m pk.n
  else Bignum.rem (Bignum.add pk.n m) pk.n

(* Blinding is the expensive half of encryption (r^n mod n^2, one full
   exponentiation); it depends only on the key and the randomness, never
   on the plaintext. [blinding] lets batched kernels precompute a pool of
   factors off the hot path, drawing from position-derived generators so
   the pool is byte-identical to on-the-fly sequential draws. *)
let draw_unit pk rng =
  let rec go () =
    let r = Bignum.random_below rng pk.n in
    if Bignum.is_zero r || not (Bignum.equal (Bignum.gcd r pk.n) Bignum.one)
    then go ()
    else r
  in
  go ()

let blinding_of_unit pk r = Bignum.Mont.pow pk.mont r pk.n
let blinding pk rng = blinding_of_unit pk (draw_unit pk rng)

let encrypt_blinded pk rn m =
  let m = encode pk m in
  (* g^m = (1 + n)^m = 1 + m*n  (mod n^2) *)
  let gm = Bignum.rem (Bignum.succ (Bignum.mul m pk.n)) pk.n2 in
  Bignum.Mont.mul pk.mont gm rn

let encrypt pk rng m = encrypt_blinded pk (blinding pk rng) m

let lfun pk x = Bignum.div (Bignum.pred x) pk.n

let decrypt pk sk c =
  let u = Bignum.Mont.pow pk.mont c sk.lambda in
  Bignum.rem (Bignum.mul (lfun pk u) sk.mu) pk.n

let decrypt_signed pk sk c =
  let m = decrypt pk sk c in
  let half = Bignum.shift_right pk.n 1 in
  if Bignum.compare m half > 0 then Bignum.sub m pk.n else m

let add pk c1 c2 = Bignum.Mont.mul pk.mont c1 c2
let mul_scalar pk c k = Bignum.Mont.pow pk.mont c (encode pk k)

let cipher_to_string = Bignum.to_string
