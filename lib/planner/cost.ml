open Relalg
module Scheme = Mpq_crypto.Scheme

type breakdown = {
  cpu : float;
  io : float;
  net : float;
  seconds : float;
  latency : float;
  per_subject : (Authz.Subject.t * float) list;
  usd : float;
}

let total b = b.usd

(* Relational throughput in tuples per minute, and the udf slowdown. *)
let tuples_per_minute = 2e6
let udf_factor = 100.0

let crypto_minutes scheme mbytes = Scheme.cpu_cost_per_mb scheme *. mbytes

let cpu_minutes ~scheme_of ~node ~child_stats ~out_stats =
  let in_card =
    List.fold_left (fun acc (s : Estimate.stats) -> acc +. s.Estimate.card) 0.0
      child_stats
  in
  match Plan.node node with
  | Plan.Base _ -> out_stats.Estimate.card /. (4.0 *. tuples_per_minute)
  | Plan.Project _ ->
      (* column picking, folded into the producing scan/operator *)
      in_card /. (20.0 *. tuples_per_minute)
  | Plan.Select _ ->
      (* predicate evaluation piggybacks on the scan *)
      in_card /. (4.0 *. tuples_per_minute)
  | Plan.Product _ ->
      (in_card +. out_stats.Estimate.card) /. tuples_per_minute
  | Plan.Join _ ->
      (* hash build + probe + materialization: the dominant relational
         cost, in line with PostgreSQL's estimates on TPC-H *)
      5.0 *. (in_card +. out_stats.Estimate.card) /. tuples_per_minute
  | Plan.Group_by _ -> 2.0 *. in_card /. tuples_per_minute
  | Plan.Udf (name, _, _, _) ->
      (* "expr:" udfs are per-row arithmetic, not the paper's
         computation-heavy analytics udfs *)
      let factor =
        if String.length name >= 5 && String.sub name 0 5 = "expr:" then 1.0
        else udf_factor
      in
      factor *. in_card /. tuples_per_minute
  | Plan.Order_by _ ->
      (* comparison sort: a few passes over the input *)
      4.0 *. in_card /. tuples_per_minute
  | Plan.Limit _ -> 0.0
  | Plan.Encrypt (attrs, _) | Plan.Decrypt (attrs, _) ->
      let child =
        match child_stats with [ c ] -> c | _ -> out_stats
      in
      Attr.Set.fold
        (fun a acc ->
          let w = Estimate.width child a in
          let mb = child.Estimate.card *. w /. 1e6 in
          acc +. crypto_minutes (scheme_of a) mb)
        attrs 0.0

(* What one subject is charged for one node's work or one transfer, in
   USD, and the seconds it takes. *)
type charge = {
  payer : Authz.Subject.t;
  cpu_usd : float;
  io_usd : float;
  net_usd : float;
  work_seconds : float;
}

let usd_of c = c.cpu_usd +. c.io_usd +. c.net_usd

(* One extended node's part of the cost: its executor, its output
   statistics, its charges (its own work, then a transfer from each
   child on another executor, in child order), the USD its subtree
   costs (its charges, then its children's subtree sums, in order), its
   critical-path completion time, and its children's parts. It is a
   function of the node's subtree and of the schemes of the attributes
   that subtree encrypts or decrypts. *)
type part = {
  executor : Authz.Subject.t;
  stats : Estimate.stats;
  charges : charge list;
  subtree_usd : float;
  finish : float;
  below : part list;
}

let part_usd p = p.subtree_usd
let part_finish p = p.finish
let part_stats p = p.stats

(* The running sums of a costing, in charge order. *)
type totals = {
  mutable cpu_sum : float;
  mutable io_sum : float;
  mutable net_sum : float;
  mutable seconds_sum : float;
}

let breakdown root =
  (* summed in preorder, each node's own charge before its transfers;
     subjects are listed in the order they are first charged *)
  let t = { cpu_sum = 0.0; io_sum = 0.0; net_sum = 0.0; seconds_sum = 0.0 } in
  let payers = ref [||] and amounts = ref [||] in
  let charge_payer s v =
    let ps = !payers in
    let rec find i =
      if i = Array.length ps then begin
        payers := Array.append ps [| s |];
        amounts := Array.append !amounts [| v |]
      end
      else if Authz.Subject.equal ps.(i) s then
        !amounts.(i) <- !amounts.(i) +. v
      else find (i + 1)
    in
    find 0
  in
  let rec sum p =
    List.iter
      (fun c ->
        t.cpu_sum <- t.cpu_sum +. c.cpu_usd;
        t.io_sum <- t.io_sum +. c.io_usd;
        t.net_sum <- t.net_sum +. c.net_usd;
        t.seconds_sum <- t.seconds_sum +. c.work_seconds;
        let v = usd_of c in
        if v <> 0.0 then charge_payer c.payer v)
      p.charges;
    List.iter sum p.below
  in
  sum root;
  { cpu = t.cpu_sum; io = t.io_sum; net = t.net_sum;
    seconds = t.seconds_sum; latency = root.finish;
    per_subject =
      Array.to_list (Array.map2 (fun s v -> (s, v)) !payers !amounts);
    usd = root.subtree_usd }

(* [part ~pricing ~network ~base ~scheme_of s n below]: extended node
   [n], executed by [s], over its children's parts in child order. *)
let part ~pricing ~network ~base ~scheme_of s n below =
  let charge s ~cpu ~io ~net ~seconds =
    let r = Pricing.rates_for pricing s in
    { payer = s;
      cpu_usd = cpu *. r.Pricing.cpu_per_min;
      io_usd = io /. 1e9 *. r.Pricing.io_per_gb;
      net_usd = net /. 1e9 *. r.Pricing.net_out_per_gb;
      work_seconds = seconds }
  in
  let child_stats = List.map (fun p -> p.stats) below in
  let stats = Estimate.node_stats ~scheme_of ~base n child_stats in
  let cpu = cpu_minutes ~scheme_of ~node:n ~child_stats ~out_stats:stats in
  let io_bytes =
    Estimate.table_bytes stats
    +. List.fold_left (fun a cs -> a +. Estimate.table_bytes cs) 0.0 child_stats
  in
  let own = charge s ~cpu ~io:io_bytes ~net:0.0 ~seconds:(cpu *. 60.0) in
  (* network: edges whose endpoints differ; children complete in
     parallel, and a transfer is paid when the edge crosses subjects *)
  let transfers, ready =
    List.fold_left
      (fun (transfers, ready) p ->
        let cs = p.executor in
        if Authz.Subject.equal cs s then (transfers, Float.max ready p.finish)
        else
          let bytes = Estimate.table_bytes p.stats in
          let seconds = Network.transfer_seconds network cs s bytes in
          ( charge cs ~cpu:0.0 ~io:0.0 ~net:bytes ~seconds :: transfers,
            Float.max ready (p.finish +. seconds) ))
      ([], 0.0) below
  in
  let charges = own :: List.rev transfers in
  let subtree_usd =
    List.fold_left
      (fun acc p -> acc +. p.subtree_usd)
      (List.fold_left (fun acc c -> acc +. usd_of c) 0.0 charges)
      below
  in
  { executor = s; stats; charges; subtree_usd;
    finish = ready +. (cpu *. 60.0); below }

let of_extended ~pricing ~network ~base ~scheme_of (ext : Authz.Extend.t) =
  let rec price n =
    part ~pricing ~network ~base ~scheme_of
      (Authz.Imap.find (Plan.id n) ext.Authz.Extend.assignment)
      n
      (List.map price (Plan.children n))
  in
  breakdown (price ext.Authz.Extend.plan)

let pp fmt b =
  Format.fprintf fmt
    "total=$%.6f (cpu=$%.6f io=$%.6f net=$%.6f, latency ~%.1fs)" (total b)
    b.cpu b.io b.net b.latency
