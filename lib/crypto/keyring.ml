type t = {
  prf : Prf.t;
  rng : Prng.t;
  paillier_rng : Prng.t;
  lock : Mutex.t; (* guards the lazy keygen below across domains *)
  mutable paillier_pair : (Paillier.public * Paillier.secret) option;
}

let create ?(seed = 0x5EED_CAFE_F00DL) () =
  let root = Prng.create seed in
  let master = Prng.bytes root 16 in
  { prf = Prf.create master;
    rng = Prng.split root;
    paillier_rng = Prng.split root;
    lock = Mutex.create ();
    paillier_pair = None }

let cluster_secret t key_id = Prf.expand t.prf ("cluster:" ^ key_id) 16

let det_key_of_secret = Det.key_of_string
let rnd_key_of_secret = Rnd.key_of_string
let ope_key_of_secret = Ope.key_of_string

let det_key t key_id = det_key_of_secret (cluster_secret t key_id)
let ope_key t key_id = ope_key_of_secret (cluster_secret t key_id)

(* Double-checked under the lock: keygen is expensive (prime search) and
   must run exactly once — concurrent callers would both advance
   [paillier_rng] and could install different pairs. The pair is still
   deterministic in the seed: [paillier_rng] is a dedicated stream only
   this keygen consumes, whenever it happens to run. *)
let paillier t =
  match t.paillier_pair with
  | Some pair -> pair
  | None ->
      Mutex.lock t.lock;
      let pair =
        match t.paillier_pair with
        | Some pair -> pair
        | None ->
            let pair = Paillier.keygen t.paillier_rng in
            t.paillier_pair <- Some pair;
            pair
      in
      Mutex.unlock t.lock;
      pair

let rng t = t.rng

let derived_rng t label =
  let bytes = Prf.expand t.prf ("rng:" ^ label) 8 in
  let seed = ref 0L in
  String.iter
    (fun c -> seed := Int64.(logor (shift_left !seed 8) (of_int (Char.code c))))
    bytes;
  Prng.create !seed
