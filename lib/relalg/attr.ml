type t = { name : string; id : int }
(* [name] first: a polymorphic compare of two attributes orders them by
   name, as [compare] does. *)

(* --- the intern table ----------------------------------------------- *)

(* Every attribute made so far. A registry is immutable once published:
   interning a name builds and publishes a new one under [lock], so
   lookups and rank reads take no lock. *)
type registry = {
  by_id : t array;  (** attribute [id] at index [id] *)
  rank : int array;  (** [rank.(id)]: where [id]'s name falls in name order *)
  sorted : t array;  (** the attributes in name order *)
  slots : t array;
      (** open addressing by [Hashtbl.hash name], [vacant] where free; a
          power of two at least twice the number of attributes *)
}

let vacant = { name = ""; id = -1 }
let lock = Mutex.create ()

let current =
  Atomic.make { by_id = [||]; rank = [||]; sorted = [||]; slots = [| vacant |] }

let lookup r name =
  let mask = Array.length r.slots - 1 in
  let rec probe i =
    let a = r.slots.(i) in
    if a == vacant then None
    else if String.equal a.name name then Some a
    else probe ((i + 1) land mask)
  in
  probe (Hashtbl.hash name land mask)

(* The registry that knows [id]. An attribute reaches another domain
   only after [intern] published a registry holding it; the locked
   re-read covers a reader that got the attribute without a
   synchronizing hand-off. *)
let registry_with id =
  let r = Atomic.get current in
  if id < Array.length r.rank then r
  else Mutex.protect lock (fun () -> Atomic.get current)

(* under [lock], [name] not yet interned *)
let intern name =
  let r = Atomic.get current in
  let n = Array.length r.by_id in
  let a = { name; id = n } in
  let p =
    (* the first position whose name is >= [name] *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if String.compare r.sorted.(mid).name name < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo
  in
  let sorted =
    Array.init (n + 1) (fun k ->
        if k < p then r.sorted.(k) else if k = p then a else r.sorted.(k - 1))
  in
  let rank = Array.make (n + 1) 0 in
  Array.iteri (fun k b -> rank.(b.id) <- k) sorted;
  let cap = ref (Array.length r.slots) in
  while !cap < 2 * (n + 1) do cap := 2 * !cap done;
  let slots = Array.make !cap vacant in
  Array.iter
    (fun b ->
      let i = ref (Hashtbl.hash b.name land (!cap - 1)) in
      while slots.(!i) != vacant do i := (!i + 1) land (!cap - 1) done;
      slots.(!i) <- b)
    sorted;
  Atomic.set current { by_id = Array.append r.by_id [| a |]; rank; sorted; slots };
  a

let find name = lookup (Atomic.get current) name

let make name =
  if String.length name = 0 then invalid_arg "Attr.make: empty name";
  match find name with
  | Some a -> a
  | None ->
      Mutex.protect lock (fun () ->
          match find name with Some a -> a | None -> intern name)

let interned () = Array.length (Atomic.get current).by_id
let name a = a.name

(* Ranks order ids as their names do, in every registry: a name
   interned later shifts ranks but never reorders two existing names. *)
let compare a b =
  if a == b then 0
  else
    let r = registry_with (max a.id b.id) in
    Int.compare r.rank.(a.id) r.rank.(b.id)

let equal a b = a.id = b.id
let hash a = a.id
let pp fmt a = Format.pp_print_string fmt a.name

(* --- sets: bitsets over ids ----------------------------------------- *)

module Set = struct
  type elt = t

  (* Bit [id mod bits] of word [id / bits] is set iff attribute [id] is a
     member. Canonical: the last word is nonzero, so the empty set is
     [||] and equal sets are structurally equal. Arrays are never mutated
     once returned, so an operation that changes nothing may return its
     operand. One-word sets (the first 63 names) take allocation-light
     paths. *)
  type t = int array

  let bits = Sys.int_size
  let empty = [||]
  let is_empty s = Array.length s = 0
  let bit id = 1 lsl (id mod bits)

  (* [s] with its trailing zero words dropped; [s] itself when none *)
  let trim s =
    let n = ref (Array.length s) in
    while !n > 0 && s.(!n - 1) = 0 do decr n done;
    if !n = Array.length s then s else Array.sub s 0 !n

  (* the one-word set [x], reusing [a] or [b] when it equals one *)
  let word x a b =
    if x = 0 then empty
    else if Array.length a = 1 && x = a.(0) then a
    else if Array.length b = 1 && x = b.(0) then b
    else [| x |]

  let mem a s =
    let w = a.id / bits in
    w < Array.length s && s.(w) land bit a.id <> 0

  let add a s =
    if mem a s then s
    else if a.id < bits && Array.length s <= 1 then
      [| (if Array.length s = 0 then 0 else s.(0)) lor bit a.id |]
    else begin
      let w = a.id / bits in
      let s' = Array.make (max (Array.length s) (w + 1)) 0 in
      Array.blit s 0 s' 0 (Array.length s);
      s'.(w) <- s'.(w) lor bit a.id;
      s'
    end

  let singleton a = add a empty

  let remove a s =
    if not (mem a s) then s
    else
      let s' = Array.copy s in
      let w = a.id / bits in
      s'.(w) <- s'.(w) land lnot (bit a.id);
      trim s'

  let union a b =
    match (Array.length a, Array.length b) with
    | 0, _ -> b
    | _, 0 -> a
    | 1, 1 -> word (a.(0) lor b.(0)) a b
    | la, lb ->
        let long, short = if la >= lb then (a, b) else (b, a) in
        let u = Array.copy long in
        for i = 0 to Array.length short - 1 do
          u.(i) <- u.(i) lor short.(i)
        done;
        u

  let inter a b =
    match (Array.length a, Array.length b) with
    | 0, _ | _, 0 -> empty
    | 1, _ | _, 1 -> word (a.(0) land b.(0)) a b
    | la, lb ->
        let r = Array.make (min la lb) 0 in
        for i = 0 to Array.length r - 1 do
          r.(i) <- a.(i) land b.(i)
        done;
        trim r

  let diff a b =
    match (Array.length a, Array.length b) with
    | 0, _ | _, 0 -> a
    | 1, _ -> word (a.(0) land lnot b.(0)) a a
    | la, lb ->
        let r = Array.copy a in
        for i = 0 to min la lb - 1 do
          r.(i) <- r.(i) land lnot b.(i)
        done;
        trim r

  let disjoint a b =
    let rec go i = i < 0 || (a.(i) land b.(i) = 0 && go (i - 1)) in
    go (min (Array.length a) (Array.length b) - 1)

  let subset a b =
    let la = Array.length a in
    la <= Array.length b
    &&
    let rec go i = i >= la || (a.(i) land lnot b.(i) = 0 && go (i + 1)) in
    go 0

  let equal a b =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i = i >= la || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))
  let cardinal s = Array.fold_left (fun n w -> n + popcount w) 0 s

  (* [masks.(j)]: the bit positions whose index has bit [j] set *)
  let masks =
    Array.init 6 (fun j ->
        let m = ref 0 in
        for p = 0 to bits - 1 do
          if (p lsr j) land 1 = 1 then m := !m lor (1 lsl p)
        done;
        !m)

  (* the index of the lowest set bit of a nonzero word *)
  let lowest x =
    let b = x land -x in
    let k = ref 0 in
    for j = 0 to 5 do
      if b land masks.(j) <> 0 then k := !k lor (1 lsl j)
    done;
    !k

  (* [f] over the member ids in ascending id order *)
  let fold_ids f s acc =
    let acc = ref acc in
    for w = 0 to Array.length s - 1 do
      let x = ref s.(w) in
      while !x <> 0 do
        acc := f ((w * bits) + lowest !x) !acc;
        x := !x land (!x - 1)
      done
    done;
    !acc

  (* A registry that knows every member of [s]. *)
  let registry_for s =
    let r = Atomic.get current in
    let n = Array.length r.rank and l = Array.length s in
    let lo = (l - 1) * bits in
    if l = 0 || n >= lo + bits || (n > lo && s.(l - 1) lsr (n - lo) = 0) then r
    else Mutex.protect lock (fun () -> Atomic.get current)

  (* [f] over the members in name order: the ids sorted by rank (an
     insertion sort; attribute sets are small). *)
  let fold f s acc =
    let k = cardinal s in
    if k = 0 then acc
    else begin
      let r = registry_for s in
      let ids = Array.make k 0 in
      ignore (fold_ids (fun id n -> ids.(n) <- id; n + 1) s 0);
      let rank = r.rank in
      for i = 1 to k - 1 do
        let id = ids.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && rank.(ids.(!j)) > rank.(id) do
          ids.(!j + 1) <- ids.(!j);
          decr j
        done;
        ids.(!j + 1) <- id
      done;
      Array.fold_left (fun acc id -> f r.by_id.(id) acc) acc ids
    end

  let iter f s = fold (fun a () -> f a) s ()
  let elements s = List.rev (fold List.cons s [])

  let min_elt s =
    let r = registry_for s in
    let first id m = if m < 0 || r.rank.(id) < r.rank.(m) then id else m in
    match fold_ids first s (-1) with -1 -> raise Not_found | id -> r.by_id.(id)

  (* Lexicographic over the members in name order, as sorted-list sets
     compare. The two sequences agree up to [m], the first member of
     exactly one of them; the one holding [m] is smaller exactly when
     the other continues past [m]. *)
  let compare a b =
    if equal a b then 0
    else
      let ra = registry_for a and rb = registry_for b in
      let rank =
        if Array.length ra.rank >= Array.length rb.rank then ra.rank else rb.rank
      in
      let la = Array.length a and lb = Array.length b in
      let at s w = if w < Array.length s then s.(w) else 0 in
      let m = ref (-1) in
      for w = 0 to max la lb - 1 do
        let x = ref (at a w lxor at b w) in
        while !x <> 0 do
          let id = (w * bits) + lowest !x in
          if !m < 0 || rank.(id) < rank.(!m) then m := id;
          x := !x land (!x - 1)
        done
      done;
      let m = !m in
      let in_a = at a (m / bits) land bit m <> 0 in
      let other = if in_a then b else a in
      let continues = fold_ids (fun id c -> c || rank.(id) > rank.(m)) other false in
      if continues = in_a then -1 else 1

  let of_list l =
    if List.for_all (fun a -> a.id < bits) l then
      match List.fold_left (fun x a -> x lor bit a.id) 0 l with
      | 0 -> empty
      | x -> [| x |]
    else List.fold_left (fun s a -> add a s) empty l

  (* called in id order: membership of the result does not depend on
     the order *)
  let filter p s =
    let by_id = (registry_for s).by_id in
    let out =
      fold_ids
        (fun id out ->
          if p by_id.(id) then out
          else begin
            let out = if out == s then Array.copy s else out in
            out.(id / bits) <- out.(id / bits) land lnot (bit id);
            out
          end)
        s s
    in
    if out == s then s else trim out

  let of_names names = of_list (List.map make names)

  (* Single-letter attribute sets print as in the paper ("SDT"); longer
     names fall back to comma separation. *)
  let to_string s =
    let names = List.map name (elements s) in
    if names <> [] && List.for_all (fun n -> String.length n = 1) names then
      String.concat "" names
    else String.concat "," names

  let pp fmt s = Format.pp_print_string fmt (to_string s)
end

module Map = Stdlib.Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
