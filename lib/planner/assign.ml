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
  send : float;  (* what sending its output to another executor costs *)
  assigned : bool;  (* false for source-side nodes, fixed at their owner *)
  site_id : int;
  below : option_ list;
}

(* The rest of the plan reads an option only through its top's
   executor, visible attributes and statistics and its open claims;
   given those, a cheaper option never makes the plan above it dearer,
   nor a faster one slower. *)
let dominates ~latency a b =
  Cost.part_usd a.part <= Cost.part_usd b.part
  && ((not latency) || Cost.part_finish a.part <= Cost.part_finish b.part)
  && Authz.Subject.equal a.executor b.executor
  && List.equal covers a.claims b.claims
  && Attr.Set.equal a.profile.Authz.Profile.ve b.profile.Authz.Profile.ve
  && Attr.Set.equal a.profile.Authz.Profile.vp b.profile.Authz.Profile.vp
  && Estimate.equal (Cost.part_stats a.part) (Cost.part_stats b.part)

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
   and the capabilities those computations ask of each class, as bits. *)
type step = {
  built : Authz.Extend.t;
  touched : Attr.t list;
  asked : (Attr.t * int) list;
}

(* A plan as the steps that built it, each over its children's. *)
type steps = Steps of step * steps list

(* The capabilities [scheme] supports, as bits. *)
let supported =
  let table =
    List.map
      (fun scheme ->
        ( scheme,
          List.fold_left
            (fun acc cap -> if Scheme.supports scheme cap then acc lor bit cap else acc)
            0 capabilities ))
      Scheme.all
  in
  fun scheme -> List.assq scheme table

(* A subtree, as the preorder numbers [lo, hi) of its nodes, whose
   outside holds the steps still to come (the root's, whose classes stay
   open until the result is delivered, and the delivered plan's, where
   every class is closed, are marked apart); and, by class id, computed
   on first use, what those steps leave of each class and, per scheme,
   the (node, attribute) demands they make that the scheme does not
   support. *)
type scope = {
  lo : int;
  hi : int;
  root : bool;
  mutable futures : int array;
  mutable unsupported : (Scheme.t * (Plan.t * Attr.t) list) list array;
}

type pick = {
  assignment : Authz.Subject.t Authz.Imap.t;
  extended : Authz.Extend.t;
  cost : Cost.breakdown;
  lower_bound : float;
}

(* [t] is never needed where [s] may run: both hold one view, so
   swapping [t] for [s] throughout a plan keeps its extension, and [s]'s
   rates are nowhere higher (ties keep the first in subject order). The
   swap only lowers prices and merges transfers away. *)
let dominated ~view ~rates s t =
  let rs = rates s and rt = rates t in
  let vs = view s and vt = view t in
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
  let tbl () = Authz.Imap.Tbl.create 16 in
  let memo table f m =
    match Authz.Imap.Tbl.find_opt table (Plan.id m) with
    | Some v -> v
    | None ->
        let v = f m in
        Authz.Imap.Tbl.add table (Plan.id m) v;
        v
  in
  (* per subject, computed once; the few subjects of a plan are
     mostly one record each *)
  let by_subject f =
    let seen = ref [] in
    fun s ->
      match List.assq_opt s !seen with
      | Some v -> v
      | None ->
          let v =
            match List.find_opt (fun (s', _) -> Authz.Subject.equal s s') !seen with
            | Some (_, v) -> v
            | None -> f s
          in
          seen := (s, v) :: !seen;
          v
  in
  let rates = by_subject (Pricing.rates_for pricing) in
  let view = by_subject (Authz.Authorization.view policy) in
  (* each distinct candidate set once *)
  let filtered = ref [] in
  let subjects_of =
    memo (tbl ()) (fun n ->
        if Authz.Candidates.is_source_side n then [ Authz.Candidates.owner_of_source n ]
        else
          let set = Authz.Candidates.candidates_of candidates n in
          match List.find_opt (fun (s, _) -> Authz.Subject.Set.equal s set) !filtered with
          | Some (_, l) -> l
          | None ->
              let l =
                Authz.Subject.Set.elements
                  (Authz.Subject.Set.filter
                     (fun t ->
                       not (Authz.Subject.Set.exists (fun s -> dominated ~view ~rates s t) set))
                     set)
              in
              filtered := (set, l) :: !filtered;
              l)
  in
  let root = Authz.Extend.root builder in
  let query = Authz.Extend.site_node root in
  let nodes = Plan.nodes query in
  List.iter
    (fun n ->
      if subjects_of n = [] then
        invalid_arg
          (Printf.sprintf "Assign: node %d (%s) has no candidate" (Plan.id n)
             (Plan.operator_name n)))
    nodes;
  let schema = memo (tbl ()) Plan.schema in
  let eq = (Authz.Profile.of_plan_logical query).Authz.Profile.eq in
  let classes = Attr_tbl.create 16 in
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
  let demands = memo (tbl ()) Authz.Opreq.capability_demands in
  (* preorder number and end of each node's subtree *)
  let order = tbl () in
  let rec number next m =
    let hi = List.fold_left number (next + 1) (Plan.children m) in
    Authz.Imap.Tbl.add order (Plan.id m) (next, hi);
    hi
  in
  ignore (number 0 query);
  (* a node's step touches only its own and its children's schemas *)
  let touch =
    memo (tbl ()) (fun m ->
        List.fold_left (fun acc c -> Attr.Set.union acc (schema c)) (schema m) (Plan.children m))
  in
  (* per class, the nodes whose step may touch it and what each may
     compute on its ciphertext, by preorder number *)
  let reach = Attr_tbl.create 8 in
  let reach cls =
    match Attr_tbl.find_opt reach cls with
    | Some r -> r
    | None ->
        let members = snd (Attr_tbl.find classes cls) in
        let r =
          List.fold_left
            (fun (touching, asking) m ->
              let at = fst (Authz.Imap.Tbl.find order (Plan.id m)) in
              ( (if Attr.Set.disjoint members (touch m) then touching else at :: touching),
                List.fold_left
                  (fun acc (a, cap) ->
                    if Attr.equal (class_of a) cls then (at, bit cap, m, a) :: acc else acc)
                  asking (demands m) ))
            ([], []) nodes
        in
        Attr_tbl.add reach cls r;
        r
  in
  let scope_of =
    memo (tbl ()) (fun n ->
        let lo, hi = Authz.Imap.Tbl.find order (Plan.id n) in
        { lo; hi; root = n == query; futures = [||]; unsupported = [||] })
  in
  (* -1 when no later step touches the class, else the capabilities
     later steps may compute on its ciphertext *)
  let future scope cls =
    let i = Attr.hash cls in
    if i >= Array.length scope.futures then
      scope.futures <- Array.append scope.futures (Array.make (i + 1) (-2));
    if scope.futures.(i) = -2 then
      scope.futures.(i) <-
        (let touching, asking = reach cls in
         if scope.root then if touching = [] then -1 else 0
         else
           let later at = at < scope.lo || at >= scope.hi in
           if not (List.exists later touching) then -1
           else
             List.fold_left (fun acc (at, b, _, _) -> if later at then acc lor b else acc) 0 asking);
    scope.futures.(i)
  in
  (* A claim can still be the rule's choice: a closed class must be
     priced under the scheme the rule picks for what was computed on it,
     an open one under its choice for that plus some of what later steps
     may compute. [still_open] keeps the open claims. *)
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
  let rec still_open scope = function
    | [] -> []
    | c :: rest as l ->
        let rest' = still_open scope rest in
        if future scope c.cls < 0 then rest' else if rest' == rest then l else c :: rest'
  in
  (* what [ext] adds above [stops], the tops of the options below; the
     one node it adds that is no encryption or decryption rebuilds an
     original node asking [asks] *)
  let structure ?(asks = []) ext stops =
    let profile n = Hashtbl.find ext.Authz.Extend.profiles (Plan.id n) in
    let rec walk n acc =
      if List.mem (Plan.id n) stops then acc
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
              asks
    in
    let touched, demands = walk ext.Authz.Extend.plan ([], []) in
    let touched = List.sort_uniq Attr.compare touched in
    { built = ext;
      touched;
      asked =
        List.filter_map
          (fun cls ->
            match
              List.fold_left
                (fun acc (c, cap) -> if Attr.equal c cls then acc lor bit cap else acc)
                0 demands
            with
            | 0 -> None
            | bits -> Some (cls, bits))
          touched }
  in
  (* Lower bounds. A node executed by [s] costs at least its relational
     work over plaintext at [s]'s rates (encryption only widens rows and
     adds work), plus a transfer from each child none of whose
     candidates is [s] ([floors]). An attribute read from a base
     relation that [s] may not see in plaintext reaches the node
     encrypted, under a scheme supporting what the node computes on it:
     it was encrypted at least once on its way up, over no fewer rows
     than the fewest it passed through, at no less than the lowest CPU
     price of the executors it passed. Each such encryption is counted
     once, at the node demanding the dearest one ([counted]); it may run
     anywhere below that node, so [rest] leaves it out. [own n] is [n]'s
     bound with its counted encryptions and the candidate reaching it,
     [least] the whole plan's, and [rest n] bounds the nodes outside
     [n]'s subtree. *)
  let stats = Estimate.annotate ~base query in
  let stat m = Authz.Imap.find (Plan.id m) stats in
  let min_rate =
    memo (tbl ()) (fun m ->
        List.fold_left
          (fun acc s -> Float.min acc (rates s).Pricing.cpu_per_min)
          Float.infinity (subjects_of m))
  in
  (* Where a demanded attribute of [c]'s output comes from: when it is
     read from a base relation, that relation's id, and the fewest rows
     and lowest CPU price on its way up to [c]. *)
  let rec origin a c =
    match Plan.node c with
    | Plan.Base _ -> Some (Plan.id c, (stat c).Estimate.card, min_rate c)
    | _ -> (
        match List.find_opt (fun c' -> Attr.Set.mem a (schema c')) (Plan.children c) with
        | None -> None
        | Some c' ->
            Option.map
              (fun (leaf, rows, rate) ->
                (leaf, Float.min rows (stat c).Estimate.card, Float.min rate (min_rate c)))
              (origin a c'))
  in
  let per_mb cap =
    List.fold_left
      (fun acc scheme ->
        if Scheme.supports scheme cap then Float.min acc (Scheme.cpu_cost_per_mb scheme) else acc)
      Float.infinity Scheme.all
  in
  (* every encryption a node's demand implies, as ((attribute, its base
     relation), cost, (attribute, node)); each (attribute, base
     relation) is counted at its dearest *)
  let implied =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun (a, cap) ->
            List.filter_map
              (fun c ->
                if not (Attr.Set.mem a (schema c)) then None
                else
                  Option.map
                    (fun (leaf, rows, rate) ->
                      ( (Attr.hash a, leaf),
                        rows *. Estimate.width (stat c) a /. 1e6 *. per_mb cap *. rate,
                        (a, Plan.id k) ))
                    (origin a c))
              (Plan.children k))
          (demands k))
      nodes
  in
  let dearest = Hashtbl.create 8 in
  List.iter
    (fun ((key, usd, _) as e) ->
      match Hashtbl.find_opt dearest key with
      | Some (_, u, _) when u >= usd -> ()
      | _ -> Hashtbl.replace dearest key e)
    implied;
  let counted = tbl () in
  List.iter
    (fun ((key, usd, (a, k)) as e) ->
      if Hashtbl.find dearest key == e then
        Authz.Imap.Tbl.replace counted k
          ((a, usd) :: Option.value ~default:[] (Authz.Imap.Tbl.find_opt counted k)))
    implied;
  let counted m = Option.value ~default:[] (Authz.Imap.Tbl.find_opt counted (Plan.id m)) in
  let work =
    memo (tbl ()) (fun m ->
        let child_stats = List.map stat (Plan.children m) in
        let cpu =
          Cost.cpu_minutes ~scheme_of:conservative ~node:m ~child_stats ~out_stats:(stat m)
        in
        let io =
          List.fold_left
            (fun a cs -> a +. Estimate.table_bytes cs)
            (Estimate.table_bytes (stat m)) child_stats
        in
        List.map
          (fun s ->
            let r = rates s in
            (s, (cpu *. r.Pricing.cpu_per_min) +. (io /. 1e9 *. r.Pricing.io_per_gb)))
          (subjects_of m))
  in
  (* per child, its candidates and what sending its output costs at
     least: a child none of whose candidates runs [m] sends it *)
  let inflow =
    memo (tbl ()) (fun m ->
        List.map
          (fun c ->
            ( subjects_of c,
              Estimate.table_bytes (stat c) /. 1e9
              *. List.fold_left
                   (fun acc t -> Float.min acc (rates t).Pricing.net_out_per_gb)
                   Float.infinity (subjects_of c) ))
          (Plan.children m))
  in
  (* per candidate, its work and the transfers it certainly receives *)
  let floors =
    memo (tbl ()) (fun m ->
        let inflow = inflow m in
        List.map
          (fun (s, w) ->
            ( s,
              List.fold_left
                (fun v (senders, usd) ->
                  if List.exists (Authz.Subject.equal s) senders then v else v +. usd)
                w inflow ))
          (work m))
  in
  let floor m = List.fold_left (fun acc (_, v) -> Float.min acc v) Float.infinity (floors m) in
  (* [own m]: [m]'s bound with the encryptions counted at [m], and the
     candidate reaching it *)
  let own =
    memo (tbl ()) (fun m ->
        let counted = counted m in
        List.fold_left
          (fun ((best, _) as acc) (s, v) ->
            let plain = (view s).Authz.Authorization.plain in
            let v =
              List.fold_left
                (fun v (a, usd) -> if Attr.Set.mem a plain then v else v +. usd)
                v counted
            in
            if v < best then (v, Some s) else acc)
          (Float.infinity, None) (floors m))
  in
  let least = List.fold_left (fun acc m -> acc +. fst (own m)) 0.0 nodes in
  let sums = tbl () in
  let rec sum m =
    let v = List.fold_left (fun acc c -> acc +. sum c) (floor m) (Plan.children m) in
    Authz.Imap.Tbl.replace sums (Plan.id m) v;
    v
  in
  let total = sum query in
  let rest n = Float.max 0.0 (total -. Authz.Imap.Tbl.find sums (Plan.id n)) in
  (* What an option's open claims add to [rest]: a later node asking a
     claimed class for a computation its scheme does not support must
     run where the attribute is plaintext, so it costs at least its
     cheapest such candidate. *)
  let restricted scope c =
    let i = Attr.hash c.cls in
    if i >= Array.length scope.unsupported then
      scope.unsupported <- Array.append scope.unsupported (Array.make (i + 1) []);
    match List.assq_opt c.scheme scope.unsupported.(i) with
    | Some r -> r
    | None ->
        let r =
          List.filter_map
            (fun (at, b, k, a) ->
              if (at < scope.lo || at >= scope.hi) && b land lnot (supported c.scheme) <> 0
              then Some (k, a)
              else None)
            (snd (reach c.cls))
        in
        scope.unsupported.(i) <- (c.scheme, r) :: scope.unsupported.(i);
        r
  in
  let plain_floor = Hashtbl.create 8 in
  let plain_floor k attrs =
    let key = (Plan.id k, attrs) in
    match Hashtbl.find_opt plain_floor key with
    | Some v -> v
    | None ->
        let v =
          List.fold_left
            (fun acc (s, v) ->
              if Attr.Set.subset attrs (view s).Authz.Authorization.plain then Float.min acc v
              else acc)
            Float.infinity (floors k)
          -. floor k
        in
        Hashtbl.add plain_floor key v;
        v
  in
  let extra scope claims =
    match
      List.fold_left
        (fun acc c -> match restricted scope c with [] -> acc | r -> r @ acc)
        [] claims
    with
    | [] -> 0.0
    | needs ->
        let rec group acc = function
          | [] -> acc
          | (k, a) :: rest ->
              let same, others = List.partition (fun (k', _) -> k' == k) rest in
              group
                (acc
                +. plain_floor k
                     (List.fold_left (fun s (_, a) -> Attr.Set.add a s) (Attr.Set.singleton a) same))
                others
        in
        group 0.0 needs
  in
  (* The part of step [b] over [stops], the parts below it, priced
     under [claims]. *)
  let price b stops claims =
    let rec go n =
      match List.assoc_opt (Plan.id n) stops with
      | Some p -> p
      | None ->
          Cost.part ~pricing ~network ~base
            ~scheme_of:(fun a -> scheme_in claims (class_of a))
            (Authz.Imap.find (Plan.id n) b.built.Authz.Extend.assignment)
            n
            (List.map go (Plan.children n))
    in
    go b.built.Authz.Extend.plan
  in
  (* Every way to price step [b] over [stops] within [within], given the
     claims of the options below: one per scheme for each class it
     touches first, among those that compute what the step asks of the
     class and can still be the rule's choice. [spent] bounds the part
     from below. *)
  let priced ?(spent = 0.0) b stops claims ~scope ~within =
    let settle c =
      match List.find_opt (fun (cls, _) -> Attr.equal cls c.cls) b.asked with
      | None -> Some c
      | Some (_, asked) ->
          if asked land lnot (supported c.scheme) <> 0 then None
          else if c.caps lor asked = c.caps then Some c
          else Some { c with caps = c.caps lor asked }
    in
    (* each choice as its new claims, in [b.touched] order, and all *)
    let rec choices news claims = function
      | [] -> [ (news, claims) ]
      | cls :: rest when List.exists (fun c -> Attr.equal c.cls cls) claims ->
          choices news claims rest
      | cls :: rest ->
          List.concat_map
            (fun scheme ->
              match settle { cls; scheme; caps = 0 } with
              | Some c when viable scope c -> choices (c :: news) (insert c claims) rest
              | _ -> [])
            (possible (conservative cls))
    in
    (* Two ways not to price a choice over [within]. One: a choice no
       new class of which is priced cheaper than in one found over is
       over too. Two: a step's cost is a sum of terms each linear in one
       class's ciphertext widths and crypto prices, so a choice costs
       what the first choice priced costs plus, per new class, what
       changing that class alone to the choice's scheme adds, read off
       the choices already priced that differ from the first in that
       class alone; a choice that sum puts over [within] (beyond
       rounding) is over. *)
    let over = ref [] in
    let above news =
      List.exists (fun o -> List.for_all2 (fun o c -> cheaper o.scheme c.scheme) o news) !over
    in
    let first = ref [] and base = ref Float.nan and deltas = ref [] in
    let same c f = Attr.equal c.cls f.cls && c.scheme = f.scheme in
    let changed news = List.filter (fun c -> not (List.exists (same c) !first)) news in
    (* the sum, and a bound on its rounding *)
    let estimate news =
      List.fold_left
        (fun (sum, error) c ->
          match List.find_opt (fun (f, _) -> same c f) !deltas with
          | Some (_, d) -> (sum +. d, error +. (1e-9 *. Float.abs d))
          | None -> (Float.nan, error))
        (!base, 1e-9 *. Float.abs !base)
        (changed news)
    in
    let learn news part =
      if Float.is_nan !base then begin
        first := news;
        base := part
      end
      else match changed news with [ c ] -> deltas := (c, part -. !base) :: !deltas | _ -> ()
    in
    let rec settle_all = function
      | [] -> Some []
      | c :: rest as l -> (
          match (settle c, settle_all rest) with
          | Some c', Some rest' -> Some (if c' == c && rest' == rest then l else c' :: rest')
          | _ -> None)
    in
    match if b.asked = [] then Some claims else settle_all claims with
    | Some settled when List.for_all (viable scope) settled ->
        List.filter_map
          (fun (news, claims) ->
            if above news then None
            else if (let sum, error = estimate news in sum -. error > within) then begin
              over := news :: !over;
              None
            end
            else
              let open_ = still_open scope claims in
              if spent +. extra scope open_ > within then None
              else
                let part = price b stops claims in
                learn news (Cost.part_usd part);
                if Cost.part_usd part > within then begin
                  over := news :: !over;
                  None
                end
                else if Cost.part_usd part +. extra scope open_ <= within then
                  Some (part, open_)
                else None)
          (choices [] settled b.touched)
    | _ -> []
  in
  (* every extension step, across searches *)
  let steps = Hashtbl.create 64 in
  let step site s ~parent_enc ~above below =
    let stops = List.map (fun (e : Authz.Extend.t) -> Plan.id e.Authz.Extend.plan) below in
    let key = (Plan.id (Authz.Extend.site_node site), parent_enc, above, s, stops) in
    match Hashtbl.find_opt steps key with
    | Some b -> b
    | None ->
        let b =
          structure
            ~asks:(demands (Authz.Extend.site_node site))
            (Authz.Extend.step builder site s ~parent_enc ~above below)
            stops
        in
        Hashtbl.add steps key b;
        b
  in
  (* The best plan costing at most [bound], if any. An option whose
     subtree plus [rest] exceeds the bound is no part of a plan within
     it; the margin absorbs rounding. *)
  let search bound =
    Obs.incr "planner.search.rounds";
    let limit = bound *. (1.0 +. 1e-9) in
    let memo = Hashtbl.create 32 in
    let rec options site ~parent_enc ~above =
      let n = Authz.Extend.site_node site in
      let key = (Plan.id n, parent_enc, above) in
      match Hashtbl.find_opt memo key with
      | Some frontier -> frontier
      | None ->
          let assigned = not (Authz.Candidates.is_source_side n) in
          let subjects = subjects_of n in
          (* the root's classes close once the result is delivered *)
          let scope = scope_of n in
          let within_bound = limit -. rest n in
          let frontier = ref [] in
          let costs = work n in
          List.iter
            (fun s ->
              let extend below claims spent =
                let stops = List.map (fun o -> (Plan.id o.ext.Authz.Extend.plan, o.part)) below in
                let b = step site s ~parent_enc ~above (List.map (fun o -> o.ext) below) in
                let profile =
                  Hashtbl.find b.built.Authz.Extend.profiles (Plan.id b.built.Authz.Extend.plan)
                in
                List.iter
                  (fun (part, claims) ->
                    frontier :=
                      keep ~latency !frontier
                        { ext = b.built; part; executor = s; profile; claims; assigned;
                          send =
                            Estimate.table_bytes (Cost.part_stats part)
                            /. 1e9 *. (rates s).Pricing.net_out_per_gb;
                          site_id = Plan.id n; below })
                  (priced ~spent b stops claims ~scope ~within:within_bound)
              in
              (* every combination of the children's options whose claims
                 agree, each list cheapest first: once the children cost
                 more than the bound allows, the dearer options after
                 them do too. [spent] bounds the step's own cost by [s]'s
                 work and a transfer from each child on another executor. *)
              let rec combine chosen claims spent = function
                | [] ->
                    if spent +. extra scope claims <= within_bound then
                      extend (List.rev chosen) claims spent
                | opts :: rest ->
                    let rec each = function
                      | o :: more when spent +. Cost.part_usd o.part <= within_bound ->
                          let total =
                            spent +. Cost.part_usd o.part
                            +. if Authz.Subject.equal o.executor s then 0.0 else o.send
                          in
                          (if total <= within_bound then
                             match merge claims o.claims with
                             | Some claims -> combine (o :: chosen) claims total rest
                             | None -> ());
                          each more
                      | _ -> ()
                    in
                    each opts
              in
              combine [] []
                (snd (List.find (fun (s', _) -> Authz.Subject.equal s s') costs))
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
    let closed =
      { lo = min_int; hi = max_int; root = false; futures = [||]; unsupported = [||] }
    in
    match
      List.concat_map
        (fun o ->
          let stops = [ (Plan.id o.ext.Authz.Extend.plan, o.part) ] in
          let b = structure (Authz.Extend.deliver builder o.ext) (List.map fst stops) in
          List.map
            (fun (part, _) -> ((o, b.built), part))
            (priced b stops o.claims ~scope:closed ~within:limit))
        (options root ~parent_enc:Attr.Set.empty ~above:Attr.Set.empty)
    with
    | [] -> None
    | first :: rest -> Some (List.fold_left (better ~max_latency) first rest)
  in
  (* An upper bound: the cost of the plan assigning each node the
     candidate its lower bound reads, each class under the scheme the
     rule picks for what that plan computes on it. The search runs once,
     at that bound, which that plan meets. Under a latency bound a
     dearer plan may win, so nothing is pruned. *)
  let upper () =
    let rec build site ~parent_enc ~above =
      let s = Option.get (snd (own (Authz.Extend.site_node site))) in
      let below =
        List.map2
          (fun c (parent_enc, above) -> build c ~parent_enc ~above)
          (Authz.Extend.site_children site)
          (Authz.Extend.inputs builder site s ~above)
      in
      Steps (step site s ~parent_enc ~above (List.map (fun (Steps (b, _)) -> b.built) below), below)
    in
    let top = build root ~parent_enc:Attr.Set.empty ~above:Attr.Set.empty in
    let (Steps (b, _)) = top in
    let plan =
      Steps
        ( structure (Authz.Extend.deliver builder b.built) [ Plan.id b.built.Authz.Extend.plan ],
          [ top ] )
    in
    let rec asked acc (Steps (b, below)) =
      List.fold_left asked
        (List.fold_left
           (fun acc cls ->
             let bits =
               Option.value ~default:0 (List.assoc_opt cls b.asked)
               lor Option.value ~default:0 (List.assoc_opt cls acc)
             in
             (cls, bits) :: List.remove_assoc cls acc)
           acc b.touched)
        below
    in
    let claims =
      List.fold_left
        (fun claims (cls, caps) ->
          match (claims, rule caps) with
          | Some claims, Some scheme -> Some (insert { cls; scheme; caps } claims)
          | _ -> None)
        (Some [])
        (asked [] plan)
    in
    match claims with
    | None -> Float.infinity
    | Some claims ->
        let rec part (Steps (b, below)) =
          price b
            (List.map
               (fun (Steps (c, _) as o) -> (Plan.id c.built.Authz.Extend.plan, part o))
               below)
            claims
        in
        Cost.part_usd (part plan)
  in
  let (o, extended), part =
    match search (if latency then Float.infinity else upper ()) with
    | Some pick -> pick
    | None -> invalid_arg "Assign: no assignment"
  in
  Obs.incr ~by:(Hashtbl.length steps) "planner.search.steps";
  let rec collect acc o =
    List.fold_left collect
      (if o.assigned then Authz.Imap.add o.site_id o.executor acc else acc)
      o.below
  in
  { assignment = collect Authz.Imap.empty o; extended; cost = Cost.breakdown part;
    lower_bound = least }

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
