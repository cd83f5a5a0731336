(* Operator scratch: the int arrays and byte maps an operator needs only
   while it runs come from its domain's pools, so a cold query does not
   put one fresh array per join, selection and grouping into the major
   heap (OCaml allocates every block over 256 words there).

   A pool keeps the arrays not handed out ([free]) and the ones handed
   out, in the order they were ([used]). [take] hands out the shortest
   free array long enough; failing one, it replaces the longest free
   array (too short) with one of exactly the size asked, so a pool holds
   as many arrays as were ever out at once, each as long as its longest
   use. A frame puts back every array taken inside it. *)

type 'a pool = {
  mutable free : 'a array;  (** cells [0 .. nfree - 1] *)
  mutable nfree : int;
  mutable used : 'a array;  (** cells [0 .. out - 1] *)
  mutable out : int;
  empty : 'a;
  length : 'a -> int;
  make : int -> 'a;
}

type t = { ints : int array pool; bytes : Bytes.t pool }

let pool empty length make =
  { free = [||]; nfree = 0; used = [||]; out = 0; empty; length; make }

let key =
  Domain.DLS.new_key (fun () ->
      { ints = pool [||] Array.length (fun n -> Array.make n 0);
        bytes = pool Bytes.empty Bytes.length Bytes.create })

(* [stack] with [a] at [len], grown when full *)
let push empty stack len a =
  let stack =
    if len < Array.length stack then stack
    else Array.append stack (Array.make (max 4 len) empty)
  in
  stack.(len) <- a;
  stack

let take p n =
  (* the shortest free array that fits, else the longest *)
  let better l b = if l >= n then b < n || l < b else b < n && l > b in
  let best = ref (-1) in
  for i = 0 to p.nfree - 1 do
    if !best < 0 || better (p.length p.free.(i)) (p.length p.free.(!best)) then best := i
  done;
  let a =
    if !best < 0 then p.make n
    else begin
      let a = p.free.(!best) in
      p.nfree <- p.nfree - 1;
      p.free.(!best) <- p.free.(p.nfree);
      p.free.(p.nfree) <- p.empty;
      if p.length a >= n then a else p.make n
    end
  in
  p.used <- push p.empty p.used p.out a;
  p.out <- p.out + 1;
  a

(* put back the arrays taken after [out] of them were out *)
let give_back p out =
  while p.out > out do
    p.out <- p.out - 1;
    p.free <- push p.empty p.free p.nfree p.used.(p.out);
    p.nfree <- p.nfree + 1;
    p.used.(p.out) <- p.empty
  done

let frame f =
  let s = Domain.DLS.get key in
  let ints = s.ints.out and bytes = s.bytes.out in
  let restore () =
    give_back s.ints ints;
    give_back s.bytes bytes
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

let ints n = take (Domain.DLS.get key).ints n
let bytes n = take (Domain.DLS.get key).bytes n

let ints_filled n x =
  let a = ints n in
  Array.fill a 0 n x;
  a

let depth () =
  let s = Domain.DLS.get key in
  s.ints.out + s.bytes.out
