(* Sign-magnitude bignum. Magnitude is a little-endian array of base-2^30
   limbs with no trailing zero limb; zero is the empty array with sign 0. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi < 0 then zero
  else if hi = n - 1 then { sign; mag }
  else { sign; mag = Array.sub mag 0 (hi + 1) }

let of_int i =
  if i = 0 then zero
  else
    let sign = if i < 0 then -1 else 1 in
    let i = abs i in
    let rec limbs acc i = if i = 0 then List.rev acc else limbs ((i land base_mask) :: acc) (i lsr base_bits) in
    { sign; mag = Array.of_list (limbs [] i) }

let one = of_int 1
let two = of_int 2

let to_int_opt t =
  (* An OCaml int holds 62 magnitude bits: up to 3 limbs if the top one is
     small enough. *)
  let n = Array.length t.mag in
  if n = 0 then Some 0
  else if n > 3 then None
  else
    let v =
      Array.fold_right (fun limb acc -> (acc * base) + limb) t.mag 0
    in
    if v < 0 then None (* overflowed *)
    else if n = 3 && t.mag.(2) >= 1 lsl (62 - (2 * base_bits)) then None
    else Some (t.sign * v)

let sign t = t.sign
let is_zero t = t.sign = 0
let is_even t = t.sign = 0 || t.mag.(0) land 1 = 0

(* magnitude comparison *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let x = if i < la then a.(i) else 0 in
    let y = if i < lb then b.(i) else 0 in
    let s = x + y + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r

(* requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let y = if i < lb then b.(i) else 0 in
    let d = a.(i) - y - !borrow in
    if d < 0 then (
      r.(i) <- d + base;
      borrow := 1)
    else (
      r.(i) <- d;
      borrow := 0)
  done;
  r

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)

let sub a b = add a (neg b)
let succ t = add t one
let pred t = sub t one

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    if ai <> 0 then begin
      for j = 0 to lb - 1 do
        let t = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- t land base_mask;
        carry := t lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land base_mask;
        carry := t lsr base_bits;
        incr k
      done
    end
  done;
  r

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

let bit_length t =
  let n = Array.length t.mag in
  if n = 0 then 0
  else
    let top = t.mag.(n - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + bits top 0

let testbit t i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length t.mag && (t.mag.(limb) lsr off) land 1 = 1

let shift_left t k =
  if t.sign = 0 || k = 0 then t
  else
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let n = Array.length t.mag in
    let r = Array.make (n + limb_shift + 1) 0 in
    for i = 0 to n - 1 do
      let v = t.mag.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land base_mask);
      if bit_shift > 0 then
        r.(i + limb_shift + 1) <- r.(i + limb_shift + 1) lor (v lsr base_bits)
    done;
    normalize t.sign r

let shift_right t k =
  if t.sign = 0 || k = 0 then t
  else
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let n = Array.length t.mag in
    if limb_shift >= n then zero
    else
      let m = n - limb_shift in
      let r = Array.make m 0 in
      for i = 0 to m - 1 do
        let lo = t.mag.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift > 0 && i + limb_shift + 1 < n then
            (t.mag.(i + limb_shift + 1) lsl (base_bits - bit_shift))
            land base_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
      normalize t.sign r

(* Knuth-style schoolbook long division on limbs, operating on magnitudes.
   Simpler binary variant: shift-subtract over bits, O(bits) iterations with
   O(limbs) work each — adequate for <=1024-bit operands used here. *)
let divmod_mag a b =
  let c = cmp_mag a b in
  if c < 0 then ([||], a)
  else
    let bits_a = ((Array.length a - 1) * base_bits) + 30 in
    let bl_b =
      let n = Array.length b in
      let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
      ((n - 1) * base_bits) + bits b.(n - 1) 0
    in
    let shift = ref (bits_a - bl_b) in
    let bpos = { sign = 1; mag = b } in
    let cur = ref (shift_left bpos !shift) in
    let rem = ref { sign = 1; mag = a } in
    let q = Array.make (Array.length a) 0 in
    while !shift >= 0 do
      if cmp_mag !rem.mag !cur.mag >= 0 then begin
        rem := normalize 1 (sub_mag !rem.mag !cur.mag);
        if !rem.sign = 0 then rem := zero;
        let limb = !shift / base_bits and off = !shift mod base_bits in
        q.(limb) <- q.(limb) lor (1 lsl off)
      end;
      cur := shift_right !cur 1;
      decr shift
    done;
    (q, !rem.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else
    let qm, rm = divmod_mag a.mag b.mag in
    let q0 = normalize (a.sign * b.sign) qm in
    let r0 = normalize a.sign rm in
    (* Adjust to Euclidean remainder: 0 <= r < |b|. *)
    if r0.sign >= 0 then (q0, r0)
    else if b.sign > 0 then (pred q0, add r0 b)
    else (succ q0, sub r0 b)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow b e =
  if e < 0 then invalid_arg "Bignum.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one b e

let mod_pow ~base:b ~exp ~modulus =
  if exp.sign < 0 then invalid_arg "Bignum.mod_pow: negative exponent";
  if modulus.sign <= 0 then invalid_arg "Bignum.mod_pow: modulus <= 0";
  let b = rem b modulus in
  let nbits = bit_length exp in
  let result = ref one and acc = ref b in
  for i = 0 to nbits - 1 do
    if testbit exp i then result := rem (mul !result !acc) modulus;
    if i < nbits - 1 then acc := rem (mul !acc !acc) modulus
  done;
  !result

(* --- Montgomery arithmetic ------------------------------------------ *)

(* Fixed-modulus contexts amortize the reduction work that [mod_pow]'s
   shift-subtract [rem] pays on every multiplication. A context holds the
   modulus limbs, the Montgomery constant -m^{-1} mod 2^30 and R^2 mod m
   (R = 2^(30k)); REDC then replaces each division with a second
   schoolbook pass, turning a ~512-bit modular multiply from O(bits *
   limbs) into O(limbs^2). Batched column kernels (Paillier blinding
   pools, windowed exponentiation) build one context per key and reuse
   it across the column. *)
module Mont = struct
  type ctx = {
    m : t;
    mm : int array; (* modulus limbs *)
    k : int; (* limb count *)
    m0inv : int; (* -m^{-1} mod 2^30 *)
    r2 : int array; (* R^2 mod m, padded to k limbs *)
    one : int array; (* R mod m = mont(1), padded to k limbs *)
  }

  let pad k mag =
    let r = Array.make k 0 in
    Array.blit mag 0 r 0 (Array.length mag);
    r

  let create m =
    if m.sign <= 0 then invalid_arg "Bignum.Mont.create: modulus <= 0";
    if is_even m then invalid_arg "Bignum.Mont.create: modulus must be odd";
    let k = Array.length m.mag in
    (* limb inverse by Newton iteration: x -> x * (2 - m0 * x), doubling
       correct low bits each round; 5 rounds cover 30 bits *)
    let m0 = m.mag.(0) in
    let inv = ref 1 in
    for _ = 1 to 5 do
      inv := !inv * (2 - (m0 * !inv)) land base_mask
    done;
    let m0inv = - !inv land base_mask in
    let r = shift_left one (base_bits * k) in
    let r2 = rem (mul r r) m in
    let one_m = rem r m in
    { m; mm = m.mag; k; m0inv; r2 = pad k r2.mag; one = pad k one_m.mag }

  (* t <- t * m' (length k each) followed by REDC, result length k.
     Operands are non-negative magnitudes in Montgomery form. *)
  let mont_mul ctx a b =
    let k = ctx.k in
    let t = Array.make ((2 * k) + 1) 0 in
    for i = 0 to k - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to k - 1 do
          let x = (ai * b.(j)) + t.(i + j) + !carry in
          t.(i + j) <- x land base_mask;
          carry := x lsr base_bits
        done;
        let p = ref (i + k) in
        while !carry <> 0 do
          let x = t.(!p) + !carry in
          t.(!p) <- x land base_mask;
          carry := x lsr base_bits;
          incr p
        done
      end
    done;
    (* REDC: clear the low k limbs by adding multiples of m *)
    for i = 0 to k - 1 do
      let u = t.(i) * ctx.m0inv land base_mask in
      if u <> 0 then begin
        let carry = ref 0 in
        for j = 0 to k - 1 do
          let x = (u * ctx.mm.(j)) + t.(i + j) + !carry in
          t.(i + j) <- x land base_mask;
          carry := x lsr base_bits
        done;
        let p = ref (i + k) in
        while !carry <> 0 do
          let x = t.(!p) + !carry in
          t.(!p) <- x land base_mask;
          carry := x lsr base_bits;
          incr p
        done
      end
    done;
    let res = Array.sub t k (k + 1) in
    (* conditional subtraction: res may reach [m, 2m) *)
    let ge =
      if res.(k) <> 0 then true
      else
        let rec cmp i =
          if i < 0 then true
          else if res.(i) <> ctx.mm.(i) then res.(i) > ctx.mm.(i)
          else cmp (i - 1)
        in
        cmp (k - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = res.(i) - ctx.mm.(i) - !borrow in
        if d < 0 then begin
          res.(i) <- d + base;
          borrow := 1
        end
        else begin
          res.(i) <- d;
          borrow := 0
        end
      done
    end;
    Array.sub res 0 k

  let of_limbs ctx limbs = normalize 1 (Array.copy limbs) |> fun v -> rem v ctx.m

  let to_mont ctx v =
    let v = rem v ctx.m in
    mont_mul ctx (pad ctx.k v.mag) ctx.r2

  let from_mont ctx limbs =
    let one_limb = Array.make ctx.k 0 in
    one_limb.(0) <- 1;
    of_limbs ctx (mont_mul ctx limbs one_limb)

  (* a * b mod m through one conversion: REDC(mont(a) * b) = a*b mod m *)
  let mul ctx a b =
    let am = to_mont ctx a in
    let b = rem b ctx.m in
    of_limbs ctx (mont_mul ctx am (pad ctx.k b.mag))

  (* 4-bit fixed-window left-to-right exponentiation *)
  let pow ctx base exp =
    if exp.sign < 0 then invalid_arg "Bignum.Mont.pow: negative exponent";
    if is_zero exp then rem one ctx.m
    else begin
      let bm = to_mont ctx base in
      let table = Array.make 16 ctx.one in
      table.(1) <- bm;
      for i = 2 to 15 do
        table.(i) <- mont_mul ctx table.(i - 1) bm
      done;
      let nbits = bit_length exp in
      let nwin = (nbits + 3) / 4 in
      let acc = ref ctx.one in
      for w = nwin - 1 downto 0 do
        if w < nwin - 1 then begin
          acc := mont_mul ctx !acc !acc;
          acc := mont_mul ctx !acc !acc;
          acc := mont_mul ctx !acc !acc;
          acc := mont_mul ctx !acc !acc
        end;
        let d =
          (if testbit exp ((4 * w) + 3) then 8 else 0)
          + (if testbit exp ((4 * w) + 2) then 4 else 0)
          + (if testbit exp ((4 * w) + 1) then 2 else 0)
          + if testbit exp (4 * w) then 1 else 0
        in
        if d <> 0 then acc := mont_mul ctx !acc table.(d)
      done;
      from_mont ctx !acc
    end
end

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let lcm a b =
  if is_zero a || is_zero b then zero else div (abs (mul a b)) (gcd a b)

let invmod a n =
  (* extended Euclid on (a mod n, n) *)
  let a = rem a n in
  let rec go old_r r old_s s =
    if is_zero r then (old_r, old_s)
    else
      let q = div old_r r in
      go r (sub old_r (mul q r)) s (sub old_s (mul q s))
  in
  let g, x = go a n one zero in
  if equal g one then Some (rem x n) else None

let of_string s =
  let neg_sign = String.length s > 0 && s.[0] = '-' in
  let start = if neg_sign || (String.length s > 0 && s.[0] = '+') then 1 else 0 in
  if String.length s <= start then invalid_arg "Bignum.of_string: empty";
  let acc = ref zero in
  let ten = of_int 10 in
  String.iteri
    (fun i c ->
      if i >= start then
        if c >= '0' && c <= '9' then
          acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
        else if c <> '_' then invalid_arg ("Bignum.of_string: " ^ s))
    s;
  if neg_sign then neg !acc else !acc

let to_string t =
  if t.sign = 0 then "0"
  else
    let buf = Buffer.create 32 in
    (* Repeated division by 10^9 to amortize. *)
    let chunk = of_int 1_000_000_000 in
    let rec go v acc =
      if is_zero v then acc
      else
        let q, r = divmod v chunk in
        let r = match to_int_opt r with Some i -> i | None -> assert false in
        go q (r :: acc)
    in
    let chunks = go (abs t) [] in
    if t.sign < 0 then Buffer.add_char buf '-';
    (match chunks with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)

let random_bits rng bits =
  if bits <= 0 then zero
  else
    let nlimbs = (bits + base_bits - 1) / base_bits in
    let mag = Array.init nlimbs (fun _ -> Prng.int rng base) in
    let top_bits = bits - ((nlimbs - 1) * base_bits) in
    mag.(nlimbs - 1) <- mag.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    normalize 1 mag

let random_below rng bound =
  if bound.sign <= 0 then invalid_arg "Bignum.random_below: bound <= 0";
  let bits = bit_length bound in
  let rec try_once n =
    if n > 1000 then rem (random_bits rng bits) bound
    else
      let v = random_bits rng bits in
      if compare v bound < 0 then v else try_once (n + 1)
  in
  try_once 0

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113 ]

(* Miller-Rabin bases per primality test *)
let mr_rounds = 24

let is_probable_prime rng n =
  if n.sign <= 0 then false
  else
    match to_int_opt n with
    | Some v when v < 2 -> false
    | Some v when List.mem v small_primes -> true
    | _ ->
        if List.exists (fun p -> is_zero (rem n (of_int p))) small_primes then
          false
        else begin
          (* n-1 = d * 2^s with d odd *)
          let n1 = pred n in
          let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
          let d, s = split n1 0 in
          let witness a =
            let x = ref (mod_pow ~base:a ~exp:d ~modulus:n) in
            if equal !x one || equal !x n1 then false
            else begin
              let composite = ref true in
              (try
                 for _ = 1 to s - 1 do
                   x := rem (mul !x !x) n;
                   if equal !x n1 then begin
                     composite := false;
                     raise Exit
                   end
                 done
               with Exit -> ());
              !composite
            end
          in
          let rec rounds_loop i =
            if i >= mr_rounds then true
            else
              let a = add two (random_below rng (sub n (of_int 4))) in
              if witness a then false else rounds_loop (i + 1)
          in
          rounds_loop 0
        end

let random_prime rng bits =
  if bits < 2 then invalid_arg "Bignum.random_prime: bits < 2";
  let rec go () =
    let cand = random_bits rng bits in
    (* force top and bottom bits: exact bit width, odd *)
    let cand = add cand (shift_left one (bits - 1)) in
    let cand = if is_even cand then succ cand else cand in
    let cand =
      if bit_length cand > bits then sub cand (shift_left one bits) else cand
    in
    let cand = if cand.sign <= 0 then succ (shift_left one (bits - 1)) else cand in
    if bit_length cand = bits && is_probable_prime rng cand then cand else go ()
  in
  go ()

let of_bytes_be s =
  let acc = ref zero in
  String.iter (fun c -> acc := add (shift_left !acc 8) (of_int (Char.code c))) s;
  !acc

let to_bytes_be t =
  if t.sign < 0 then invalid_arg "Bignum.to_bytes_be: negative";
  if t.sign = 0 then ""
  else
    let nbytes = (bit_length t + 7) / 8 in
    let b = Bytes.create nbytes in
    let v = ref t in
    let byte_mask = of_int 255 in
    for i = nbytes - 1 downto 0 do
      let byte = match to_int_opt (rem !v (of_int 256)) with
        | Some x -> x
        | None -> assert false
      in
      ignore byte_mask;
      Bytes.set b i (Char.chr byte);
      v := shift_right !v 8
    done;
    Bytes.to_string b
