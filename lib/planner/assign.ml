open Relalg
module Scheme = Mpq_crypto.Scheme
module Attr_tbl = Hashtbl.Make (Attr)

(* What an option assumes about one equivalence class of the query's
   attributes (the unit schemes are chosen for) that its subtree handles
   encrypted: the scheme it prices the class under, and the
   capabilities its nodes compute on the class's ciphertext, as bits. A
   class is named by its first member. *)
type claim = { cls : Attr.t; scheme : Scheme.t; caps : int }

let capabilities = [ Scheme.Cap_equality; Scheme.Cap_order; Scheme.Cap_addition ]

let bit = function
  | Scheme.Cap_equality -> 1
  | Scheme.Cap_order -> 2
  | Scheme.Cap_addition -> 4

(* The scheme the paper's rule picks for the capabilities [caps]. *)
let rule =
  let table =
    Array.init 8 (fun caps ->
        Scheme.strongest_supporting
          (List.filter (fun c -> caps land bit c <> 0) capabilities))
  in
  fun caps -> table.(caps)

(* The schemes the rule can pick for a class, given the one it picks
   when every operation that may compute on the class's ciphertext does
   (the conservative scheme): its choice for some subset of those
   capabilities. Cheapest first. *)
let possible = function
  | Scheme.Rnd -> [ Scheme.Rnd ]
  | Scheme.Det -> [ Scheme.Det; Scheme.Rnd ]
  | Scheme.Ope -> [ Scheme.Det; Scheme.Rnd; Scheme.Ope ]
  | Scheme.Phe -> [ Scheme.Rnd; Scheme.Phe ]

(* [s] costs no more CPU per MB and expands no more than [t], so an
   extension priced with [s] for a class costs no more than with [t]. *)
let cheaper s t =
  Scheme.cpu_cost_per_mb s <= Scheme.cpu_cost_per_mb t
  && Scheme.expansion s <= Scheme.expansion t

(* [a] leaves the rest of the plan every choice [b] does: the same
   class under the same scheme, with at least [b]'s capabilities already
   computed (a later demand that makes the rule pick [b]'s scheme picks
   it for [a]'s too, since that scheme supports [a]'s capabilities). *)
let covers a b =
  Attr.equal a.cls b.cls && a.scheme = b.scheme && a.caps lor b.caps = a.caps

(* Claims are kept sorted by class id. Two options combine only when
   they price a class they share under one scheme. *)
let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> Some l
  | x :: a', y :: b' ->
      let c = compare (Attr.hash x.cls) (Attr.hash y.cls) in
      if c < 0 then Option.map (fun l -> x :: l) (merge a' b)
      else if c > 0 then Option.map (fun l -> y :: l) (merge a b')
      else if x.scheme <> y.scheme then None
      else
        Option.map (fun l -> { x with caps = x.caps lor y.caps } :: l) (merge a' b')

let rec insert claim = function
  | x :: rest when Attr.hash x.cls < Attr.hash claim.cls -> x :: insert claim rest
  | l -> claim :: l

let scheme_in claims cls =
  match List.find_opt (fun c -> Attr.equal c.cls cls) claims with
  | Some c -> c.scheme
  | None -> Scheme.Rnd

(* One way to extend a subtree under given inputs: its extension, the
   subtree's part of the cost, what the parent reads of it (the top's
   executor, profile and statistics, and the claims on classes the rest
   of the plan may still touch), and the options of its children it was
   built over. *)
type option_ = {
  ext : Authz.Extend.t;
  part : Cost.part;
  executor : Authz.Subject.t;
  profile : Authz.Profile.t;
  claims : claim list;
  assigned : bool;  (* false for source-side nodes, fixed at their owner *)
  site_id : int;
  below : option_ list;
}

(* The rest of the plan reads an option only through its top's
   executor, visible attributes and statistics and its open claims;
   given those, a cheaper option never makes the plan above it dearer,
   nor a faster one slower. *)
let dominates ~latency a b =
  Authz.Subject.equal a.executor b.executor
  && Attr.Set.equal a.profile.Authz.Profile.ve b.profile.Authz.Profile.ve
  && Attr.Set.equal a.profile.Authz.Profile.vp b.profile.Authz.Profile.vp
  && Estimate.equal (Cost.part_stats a.part) (Cost.part_stats b.part)
  && List.equal covers a.claims b.claims
  && Cost.part_usd a.part <= Cost.part_usd b.part
  && ((not latency) || Cost.part_finish a.part <= Cost.part_finish b.part)

let keep ~latency frontier o =
  if List.exists (fun f -> dominates ~latency f o) frontier then frontier
  else o :: List.filter (fun f -> not (dominates ~latency o f)) frontier

(* [b] when it beats [a]: the cheaper; under a latency bound, one within
   it beats one outside it, and of two outside it the faster wins (the
   paper's performance threshold, Sec. 7). *)
let better ~max_latency (a, pa) (b, pb) =
  let total = Cost.part_usd and latency = Cost.part_finish in
  match max_latency with
  | None -> if total pb < total pa then (b, pb) else (a, pa)
  | Some bound ->
      let ok p = latency p <= bound in
      if ok pa = ok pb then
        if (if ok pa then total pb < total pa else latency pb < latency pa)
        then (b, pb)
        else (a, pa)
      else if ok pb then (b, pb)
      else (a, pa)

(* What one extension step built that no scheme changes: the extension,
   the classes its new nodes encrypt, decrypt or compute on encrypted,
   and those computations, as (class, capability). *)
type step = {
  built : Authz.Extend.t;
  touched : Attr.t list;
  demands : (Attr.t * Scheme.capability) list;
}

(* What the steps outside one subtree may touch: attributes (a node's
   step touches only its own and its children's schemas) and
   computations on ciphertext, as (class, capability bit); and, by class
   id, what that leaves of each class, computed on first use. *)
type scope = {
  touch : Attr.Set.t;
  later : (Attr.t * int) list;
  mutable futures : int array;
}

type pick = {
  assignment : Authz.Subject.t Authz.Imap.t;
  extended : Authz.Extend.t;
  cost : Cost.breakdown;
}

(* [t] is never needed where [s] may run: both hold one view, so
   swapping [t] for [s] throughout a plan keeps its extension, and [s]'s
   rates are nowhere higher (ties keep the first in subject order). The
   swap only lowers prices and merges transfers away. *)
let dominated ~policy ~pricing s t =
  let rs = Pricing.rates_for pricing s and rt = Pricing.rates_for pricing t in
  let vs = Authz.Authorization.view policy s
  and vt = Authz.Authorization.view policy t in
  s.Authz.Subject.role = t.Authz.Subject.role
  && rs.Pricing.cpu_per_min <= rt.Pricing.cpu_per_min
  && rs.Pricing.io_per_gb <= rt.Pricing.io_per_gb
  && rs.Pricing.net_out_per_gb <= rt.Pricing.net_out_per_gb
  && (rs <> rt || Authz.Subject.compare s t < 0)
  && Attr.Set.equal vs.Authz.Authorization.plain vt.Authz.Authorization.plain
  && Attr.Set.equal vs.Authz.Authorization.enc vt.Authz.Authorization.enc

let optimize ~candidates ~policy ~builder ~pricing ~network ~base ~conservative
    ?max_latency () =
  let latency = Option.is_some max_latency in
  let candidates =
    Authz.Imap.map
      (fun set ->
        Authz.Subject.Set.filter
          (fun t ->
            not (Authz.Subject.Set.exists (fun s -> dominated ~policy ~pricing s t) set))
          set)
      candidates
  in
  let subjects_of n =
    if Authz.Candidates.is_source_side n then [ Authz.Candidates.owner_of_source n ]
    else Authz.Subject.Set.elements (Authz.Candidates.candidates_of candidates n)
  in
  let root = Authz.Extend.root builder in
  let query = Authz.Extend.site_node root in
  let eq = (Authz.Profile.of_plan_logical query).Authz.Profile.eq in
  let classes = Attr_tbl.create 64 in
  let class_of a =
    match Attr_tbl.find_opt classes a with
    | Some (c, _) -> c
    | None ->
        let members = Authz.Partition.find eq a in
        let c = Attr.Set.min_elt members in
        Attr_tbl.replace classes a (c, members);
        Attr_tbl.replace classes c (c, members);
        c
  in
  let local m =
    ( List.fold_left
        (fun acc c -> Attr.Set.union acc (Plan.schema c))
        (Plan.schema m) (Plan.children m),
      List.map (fun (a, cap) -> (class_of a, bit cap)) (Authz.Opreq.capability_demands m) )
  in
  let union (a, d) (a', d') = (Attr.Set.union a a', d @ d') in
  let rec within m =
    List.fold_left (fun acc c -> union acc (within c)) (local m) (Plan.children m)
  in
  let scopes = Hashtbl.create 64 in
  let rec fill m out =
    Hashtbl.replace scopes (Plan.id m)
      { touch = fst out; later = List.sort_uniq compare (snd out); futures = [||] };
    let kids = List.map (fun c -> (c, within c)) (Plan.children m) in
    List.iter
      (fun (c, _) ->
        fill c
          (List.fold_left
             (fun acc (c', w) -> if c' == c then acc else union acc w)
             (union out (local m)) kids))
      kids
  in
  fill query (Attr.Set.empty, []);
  (* -1 when no later step touches the class, else the capabilities
     later steps may compute on its ciphertext *)
  let future scope cls =
    let i = Attr.hash cls in
    if i >= Array.length scope.futures then
      scope.futures <- Array.append scope.futures (Array.make (i + 1) (-2));
    if scope.futures.(i) = -2 then
      scope.futures.(i) <-
        (if Attr.Set.disjoint (snd (Attr_tbl.find classes cls)) scope.touch then -1
         else
           List.fold_left
             (fun acc (c, b) -> if Attr.equal c cls then acc lor b else acc)
             0 scope.later);
    scope.futures.(i)
  in
  (* A claim can still be the rule's choice: a closed class must be
     priced under the scheme the rule picks for what was computed on it,
     an open one under its choice for that plus some of what later steps
     may compute. [close] keeps the open claims. *)
  let viable scope c =
    match future scope c.cls with
    | -1 -> rule c.caps = Some c.scheme
    | later ->
        let rec from sub =
          rule (c.caps lor sub) = Some c.scheme
          || (sub > 0 && from ((sub - 1) land later))
        in
        from later
  in
  let close scope claims =
    if List.for_all (viable scope) claims then
      Some (List.filter (fun c -> future scope c.cls >= 0) claims)
    else None
  in
  (* what [ext] adds above [stops], the tops of the options below *)
  let structure ext stops =
    let profile n = Hashtbl.find ext.Authz.Extend.profiles (Plan.id n) in
    let rec walk n acc =
      if List.mem_assoc (Plan.id n) stops then acc
      else
        let touched, demands =
          List.fold_left (fun acc c -> walk c acc) acc (Plan.children n)
        in
        match Plan.node n with
        | Plan.Encrypt (attrs, _) | Plan.Decrypt (attrs, _) ->
            (Attr.Set.fold (fun a acc -> class_of a :: acc) attrs touched, demands)
        | _ ->
            let operand_ve =
              List.fold_left
                (fun acc c -> Attr.Set.union acc (profile c).Authz.Profile.ve)
                Attr.Set.empty (Plan.children n)
            in
            List.fold_left
              (fun ((touched, demands) as acc) (a, cap) ->
                if Attr.Set.mem a operand_ve then
                  (class_of a :: touched, (class_of a, cap) :: demands)
                else acc)
              (touched, demands)
              (Authz.Opreq.capability_demands n)
    in
    let touched, demands = walk ext.Authz.Extend.plan ([], []) in
    { built = ext; touched = List.sort_uniq Attr.compare touched; demands }
  in
  (* Every way to price step [b] over [stops] within [within], given the
     claims of the options below: one per scheme for each class it
     touches first, among those that compute what the step asks of the
     class and can still be the rule's choice. *)
  let priced b stops claims ~scope ~within =
    let settle c =
      let asked =
        List.fold_left
          (fun acc (cls, cap) -> if Attr.equal cls c.cls then acc lor bit cap else acc)
          0 b.demands
      in
      if
        List.for_all
          (fun cap -> asked land bit cap = 0 || Scheme.supports c.scheme cap)
          capabilities
      then Some { c with caps = c.caps lor asked }
      else None
    in
    let rec choices claims = function
      | [] -> [ claims ]
      | cls :: rest when List.exists (fun c -> Attr.equal c.cls cls) claims ->
          choices claims rest
      | cls :: rest ->
          List.concat_map
            (fun scheme ->
              match settle { cls; scheme; caps = 0 } with
              | Some c when viable scope c -> choices (insert c claims) rest
              | _ -> [])
            (possible (conservative cls))
    in
    let rec price claims n =
      match List.assoc_opt (Plan.id n) stops with
      | Some p -> p
      | None ->
          Cost.part ~pricing ~network ~base
            ~scheme_of:(fun a -> scheme_in claims (class_of a))
            (Authz.Imap.find (Plan.id n) b.built.Authz.Extend.assignment)
            n
            (List.map (price claims) (Plan.children n))
    in
    (* a choice no class of which is priced cheaper than in one found
       over [within] is over too *)
    let over = ref [] in
    let above l =
      List.exists (fun o -> List.for_all2 (fun o c -> cheaper o.scheme c.scheme) o l) !over
    in
    match List.map settle claims with
    | settled when List.mem None settled -> []
    | settled ->
        List.filter_map
          (fun claims ->
            if above claims then None
            else
              let part = price claims b.built.Authz.Extend.plan in
              if Cost.part_usd part > within then begin
                over := claims :: !over;
                None
              end
              else Option.map (fun open_ -> (part, open_)) (close scope claims))
          (choices (List.filter_map Fun.id settled) b.touched)
  in
  (* A lower bound on each node's own charge: its work at its cheapest
     candidate, over plaintext (encryption only widens rows and adds
     work, and transfers only add). [rest n] bounds what the nodes
     outside [n]'s subtree cost, [alone n] what [n] costs; [least] bounds
     the whole plan. *)
  let least, rest, alone =
    let stats = Estimate.annotate ~base query in
    let stat m = Authz.Imap.find (Plan.id m) stats in
    let sums = Hashtbl.create 64 and owns = Hashtbl.create 64 in
    let rec sum m =
      let child_stats = List.map stat (Plan.children m) in
      let cpu =
        Cost.cpu_minutes ~scheme_of:conservative ~node:m ~child_stats ~out_stats:(stat m)
      in
      let io =
        List.fold_left
          (fun a cs -> a +. Estimate.table_bytes cs)
          (Estimate.table_bytes (stat m)) child_stats
      in
      let own =
        List.fold_left
          (fun acc s ->
            let r = Pricing.rates_for pricing s in
            Float.min acc ((cpu *. r.Pricing.cpu_per_min) +. (io /. 1e9 *. r.Pricing.io_per_gb)))
          Float.infinity (subjects_of m)
      in
      let v = List.fold_left (fun a c -> a +. sum c) own (Plan.children m) in
      Hashtbl.replace owns (Plan.id m) own;
      Hashtbl.replace sums (Plan.id m) v;
      v
    in
    let total = sum query in
    ( total,
      (fun n -> Float.max 0.0 (total -. Hashtbl.find sums (Plan.id n))),
      fun n -> Hashtbl.find owns (Plan.id n) )
  in
  (* every extension step, across searches *)
  let steps = Hashtbl.create 256 in
  let step site s i ~parent_enc ~above below stops =
    let key = (Plan.id (Authz.Extend.site_node site), parent_enc, above, i, List.map fst stops) in
    match Hashtbl.find_opt steps key with
    | Some b -> b
    | None ->
        let b =
          structure
            (Authz.Extend.step builder site s ~parent_enc ~above
               (List.map (fun o -> o.ext) below))
            stops
        in
        Hashtbl.add steps key b;
        b
  in
  (* The best plan costing at most [bound], if any. An option whose
     subtree plus [rest] exceeds the bound is no part of a plan within
     it; the margin absorbs rounding. *)
  let search bound =
    let limit = bound *. (1.0 +. 1e-9) in
    let memo = Hashtbl.create 64 in
    let rec options site ~parent_enc ~above =
      let n = Authz.Extend.site_node site in
      let key = (Plan.id n, parent_enc, above) in
      match Hashtbl.find_opt memo key with
      | Some frontier -> frontier
      | None ->
          let assigned = not (Authz.Candidates.is_source_side n) in
          let subjects = subjects_of n in
          if subjects = [] then
            invalid_arg
              (Printf.sprintf "Assign: node %d (%s) has no candidate" (Plan.id n)
                 (Plan.operator_name n));
          (* the root's classes close once the result is delivered *)
          let scope =
            if n == query then { touch = fst (within query); later = []; futures = [||] }
            else Hashtbl.find scopes (Plan.id n)
          in
          let within_bound = limit -. rest n in
          let frontier = ref [] in
          List.iteri
            (fun i s ->
              let extend below =
                let stops = List.map (fun o -> (Plan.id o.ext.Authz.Extend.plan, o.part)) below in
                let b = step site s i ~parent_enc ~above below stops in
                let profile =
                  Hashtbl.find b.built.Authz.Extend.profiles (Plan.id b.built.Authz.Extend.plan)
                in
                Option.iter
                  (fun claims ->
                    List.iter
                      (fun (part, claims) ->
                        frontier :=
                          keep ~latency !frontier
                            { ext = b.built; part; executor = s; profile; claims; assigned;
                              site_id = Plan.id n; below })
                      (priced b stops claims ~scope ~within:within_bound))
                  (List.fold_left (fun acc o -> Option.bind acc (merge o.claims)) (Some []) below)
              in
              (* every combination of the children's options, each list
                 cheapest first: once the children cost more than the
                 bound allows, the dearer options after them do too *)
              let rec combine chosen spent = function
                | [] -> extend (List.rev chosen)
                | opts :: rest ->
                    let rec each = function
                      | o :: more when spent +. Cost.part_usd o.part <= within_bound ->
                          combine (o :: chosen) (spent +. Cost.part_usd o.part) rest;
                          each more
                      | _ -> ()
                    in
                    each opts
              in
              combine [] (alone n)
                (List.map2
                   (fun c (parent_enc, above) -> options c ~parent_enc ~above)
                   (Authz.Extend.site_children site)
                   (Authz.Extend.inputs builder site s ~above)))
            subjects;
          (* cheapest first, ties in arrival order *)
          let frontier =
            List.stable_sort
              (fun a b -> Float.compare (Cost.part_usd a.part) (Cost.part_usd b.part))
              (List.rev !frontier)
          in
          Hashtbl.add memo key frontier;
          frontier
    in
    (* deliver each root option, then close every class *)
    let closed = { touch = Attr.Set.empty; later = []; futures = [||] } in
    match
      List.concat_map
        (fun o ->
          let stops = [ (Plan.id o.ext.Authz.Extend.plan, o.part) ] in
          let b = structure (Authz.Extend.deliver builder o.ext) stops in
          List.map
            (fun (part, _) -> ((o, b.built), part))
            (priced b stops o.claims ~scope:closed ~within:limit))
        (options root ~parent_enc:Attr.Set.empty ~above:Attr.Set.empty)
    with
    | [] -> None
    | first :: rest -> Some (List.fold_left (better ~max_latency) first rest)
  in
  (* Bounds grow from the lower bound until a plan fits; under a latency
     bound a dearer plan may win, so nothing is pruned. *)
  let rec deepen = function
    | factor :: more when (not latency) && least > 0.0 -> (
        match search (least *. factor) with
        | Some pick -> pick
        | None -> deepen more)
    | _ -> (
        match search Float.infinity with
        | Some pick -> pick
        | None -> invalid_arg "Assign: no assignment")
  in
  let (o, extended), part = deepen [ 1.25; 1.5; 2.0; 3.0; 5.0; 10.0; 100.0 ] in
  Obs.incr ~by:(Hashtbl.length steps) "planner.search.steps";
  let rec collect acc o =
    List.fold_left collect
      (if o.assigned then Authz.Imap.add o.site_id o.executor acc else acc)
      o.below
  in
  { assignment = collect Authz.Imap.empty o; extended; cost = Cost.breakdown part }

let enumerate candidates plan =
  List.fold_left
    (fun acc n ->
      if Authz.Candidates.is_source_side n then acc
      else
        List.concat_map
          (fun partial ->
            List.map
              (fun s -> Authz.Imap.add (Plan.id n) s partial)
              (Authz.Subject.Set.elements (Authz.Candidates.candidates_of candidates n)))
          acc)
    [ Authz.Imap.empty ] (Plan.nodes plan)
