open Relalg

(* Hash-consed plan DAGs (ROADMAP item 2, after the
   jstolarek/algebra-dag idiom: an algebra over shared-node DAGs).

   Plans enter the system as trees with globally unique node ids; the
   store interns them bottom-up by canonical structural fingerprint
   (Fingerprint.of_plan encodings — collision-free, so equal
   fingerprints mean equal shapes by construction). Structurally
   identical subtrees — across the queries of a serve batch, across
   the cached TPC-H shapes, and even within one query — collapse onto
   one representative node, turning the forest of cached executable
   plans into a DAG whose shared nodes can be planned, verified and
   executed once.

   The store never rewrites a plan's semantics: [intern] returns a
   plan [equal_shape]-identical to its input, with physically shared
   subtrees. Consumers that label nodes per occurrence (the executor's
   position-derived encryption randomness) must therefore thread
   positions through their traversal (Plan.child_positions) rather
   than keying tables by node id — see Exec. *)

type info = {
  rep : Plan.t;  (* canonical representative (children interned) *)
  size : int;
  crypto_free : bool;
  mutable occurrences : int;
}

type t = {
  store : (string, info) Hashtbl.t;  (* structural fingerprint -> node *)
  fps : (int, string) Hashtbl.t;  (* representative's node id -> fp *)
  mutable interned : int;  (* plans interned (root-level calls) *)
}

let create () =
  { store = Hashtbl.create 256; fps = Hashtbl.create 1024; interned = 0 }

(* Structural fingerprint, byte-identical to Fingerprint.of_plan so DAG
   keys line up with plan-cache keys. Only representatives are memoized:
   [intern_node] fingerprints a node after interning its children, so
   every level reads its children from the memo (linear work per plan),
   and a plan whose nodes are not kept adds nothing to the store. *)
let rec fingerprint t p =
  match Hashtbl.find_opt t.fps (Plan.id p) with
  | Some fp -> fp
  | None -> Fingerprint.of_plan_via (fingerprint t) p

(* A subtree is crypto-free when it produces no ciphertext: no
   Encrypt/Decrypt operation and no outsourced (encrypted-at-rest) base
   relation. Its result table is then a pure function of structure and
   stored data — independent of the subtree's preorder position in the
   enclosing plan — so results may be shared across occurrences at
   different positions. Anything touching ciphertext is position-bound:
   encryption randomness derives from preorder positions. *)
let rec crypto_free p =
  (match Plan.node p with
  | Plan.Encrypt _ | Plan.Decrypt _ -> false
  | Plan.Base s -> Attr.Set.is_empty (Schema.stored_encrypted s)
  | _ -> true)
  && List.for_all crypto_free (Plan.children p)

let rec intern_node t p =
  let children = Plan.children p in
  let interned = List.map (intern_node t) children in
  let p =
    if List.for_all2 ( == ) children interned then p
    else Plan.with_children p interned
  in
  let fp = fingerprint t p in
  match Hashtbl.find_opt t.store fp with
  | Some info ->
      info.occurrences <- info.occurrences + 1;
      info.rep
  | None ->
      Hashtbl.add t.store fp
        { rep = p; size = Plan.size p; crypto_free = crypto_free p;
          occurrences = 1 };
      Hashtbl.add t.fps (Plan.id p) fp;
      p

let intern t p =
  t.interned <- t.interned + 1;
  intern_node t p

let find t p = Hashtbl.find_opt t.store (fingerprint t p)

let occurrences t p =
  match find t p with Some i -> i.occurrences | None -> 0

let is_shared t p =
  match find t p with Some i -> i.occurrences > 1 | None -> false

type stats = {
  plans : int;  (* intern calls *)
  nodes : int;  (* distinct nodes in the store *)
  occurrences : int;  (* total occurrences across interned plans *)
  shared_nodes : int;  (* distinct nodes with > 1 occurrence *)
  shared_occurrences : int;
      (* occurrences beyond the first of each shared node: the count of
         subtrees the DAG representation did not have to materialize *)
}

let stats t =
  let nodes = Hashtbl.length t.store in
  let occurrences, shared_nodes, shared_occurrences =
    Hashtbl.fold
      (fun _ (info : info) (occ, sn, so) ->
        ( occ + info.occurrences,
          (if info.occurrences > 1 then sn + 1 else sn),
          if info.occurrences > 1 then so + info.occurrences - 1 else so ))
      t.store (0, 0, 0)
  in
  { plans = t.interned; nodes; occurrences; shared_nodes;
    shared_occurrences }

let clear t =
  Hashtbl.reset t.store;
  Hashtbl.reset t.fps;
  t.interned <- 0
