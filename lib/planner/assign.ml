open Relalg
module Scheme = Mpq_crypto.Scheme

type entry = {
  cost : float;
  enc : (float * float) Attr.Map.t;
      (* encrypted attrs in the node's output, with the (MB, cpu rate)
         at which their encryption was charged — the basis for lazily
         pricing scheme upgrades when an operation later computes on the
         ciphertext *)
  choice : (int * Authz.Subject.t) list;  (* assignments in the subtree *)
}

let width_of = Estimate.width

let solve ~candidates ~policy ~config ~pricing ~stats ~scheme_of plan =
  let stat_of n = Authz.Imap.find (Plan.id n) stats in
  let rates s = Pricing.rates_for pricing s in
  (* crypto cpu minutes to transform [attrs] of a table with [st] stats *)
  let crypto_minutes st attrs =
    Attr.Set.fold
      (fun a acc ->
        let mb = st.Estimate.card *. width_of st a /. 1e6 in
        acc +. (Scheme.cpu_cost_per_mb (scheme_of a) *. mb))
      attrs 0.0
  in
  let bytes_with_enc st enc =
    st.Estimate.card
    *. Estimate.fold_widths
         (fun a w acc ->
           if Attr.Map.mem a enc then
             acc +. (w *. Scheme.expansion (scheme_of a))
           else acc +. w)
         st 0.0
  in
  (* returns the per-candidate table for node n *)
  let rec options n : (Authz.Subject.t * entry) list =
    Obs.incr "planner.dp.nodes";
    let subjects =
      if Authz.Candidates.is_source_side n then
        [ Authz.Candidates.owner_of_source n ]
      else
        match
          Authz.Subject.Set.elements (Authz.Candidates.candidates_of candidates n)
        with
        | [] ->
            invalid_arg
              (Printf.sprintf "Assign: node %d (%s) has no candidate"
                 (Plan.id n) (Plan.operator_name n))
        | l -> l
    in
    let child_tables = List.map (fun c -> (c, options c)) (Plan.children n) in
    let ap = Authz.Opreq.plaintext_attrs config n in
    let demands = Authz.Opreq.capability_demands n in
    (* aggregate operands (outside the keys) are decrypted when the
       executor holds plaintext rights — mirrors Extend's rule *)
    let agg_operands =
      match Plan.node n with
      | Plan.Group_by (keys, aggs, _) ->
          let ops =
            List.fold_left
              (fun acc (agg : Aggregate.t) ->
                match Aggregate.operand agg with
                | Some a -> Attr.Set.add a acc
                | None -> acc)
              Attr.Set.empty aggs
          in
          Attr.Set.diff ops keys
      | _ -> Attr.Set.empty
    in
    List.map
      (fun s ->
        let r_s = rates s in
        let view = Authz.Authorization.view policy s in
        let ap =
          Attr.Set.union ap
            (Attr.Set.inter agg_operands view.Authz.Authorization.plain)
        in
        (* per child: cheapest executor including edge costs *)
        let picked =
          List.map
            (fun (c, table) ->
              let cst = stat_of c in
              let schema_c = Plan.schema c in
              let visible_enc =
                Attr.Set.inter view.Authz.Authorization.enc schema_c
              in
              let best =
                List.fold_left
                  (fun best (sc, (e : entry)) ->
                    let r_sc = rates sc in
                    let to_encrypt =
                      Attr.Set.filter
                        (fun a -> not (Attr.Map.mem a e.enc))
                        visible_enc
                    in
                    let enc_after =
                      Attr.Set.fold
                        (fun a m ->
                          let mb =
                            cst.Estimate.card *. width_of cst a /. 1e6
                          in
                          Attr.Map.add a (mb, r_sc.Pricing.cpu_per_min) m)
                        to_encrypt e.enc
                    in
                    let to_decrypt =
                      Attr.Set.filter
                        (fun a -> Attr.Map.mem a enc_after)
                        ap
                    in
                    let enc_final =
                      Attr.Set.fold Attr.Map.remove to_decrypt enc_after
                    in
                    let enc_cost =
                      crypto_minutes cst to_encrypt *. r_sc.Pricing.cpu_per_min
                    in
                    (* Evaluating n's operation over ciphertext commits
                       the attribute to a scheme supporting it; charge
                       the gap between that scheme and the symmetric
                       baseline, at the sender performing the
                       encryption (Paillier-grade aggregation must not
                       delegate blindly). *)
                    let surcharge =
                      List.fold_left
                        (fun acc (a, cap) ->
                          match Attr.Map.find_opt a enc_final with
                          | Some (paid_mb, paid_rate)
                            when Attr.Set.mem a schema_c -> (
                              match Scheme.strongest_supporting [ cap ] with
                              | None -> acc +. 1e6
                              | Some sch ->
                                  let gap =
                                    Float.max 0.0
                                      (Scheme.cpu_cost_per_mb sch
                                      -. Scheme.cpu_cost_per_mb Scheme.Det)
                                  in
                                  acc +. (gap *. paid_mb *. paid_rate))
                          | _ -> acc)
                        0.0 demands
                    in
                    let dec_cost =
                      crypto_minutes cst to_decrypt *. r_s.Pricing.cpu_per_min
                    in
                    let transfer =
                      if Authz.Subject.equal sc s then 0.0
                      else
                        bytes_with_enc cst enc_after /. 1e9
                        *. r_sc.Pricing.net_out_per_gb
                    in
                    let cost =
                      e.cost +. enc_cost +. dec_cost +. transfer +. surcharge
                    in
                    match best with
                    | Some (bc, _, _) when bc <= cost -> best
                    | _ -> Some (cost, enc_final, e.choice))
                  None table
              in
              match best with
              | Some (cost, enc, choice) -> (cost, enc, choice)
              | None -> assert false)
            child_tables
        in
        let child_cost = List.fold_left (fun a (c, _, _) -> a +. c) 0.0 picked in
        let child_enc =
          List.fold_left
            (fun a (_, e, _) ->
              Attr.Map.union (fun _ x _ -> Some x) a e)
            Attr.Map.empty picked
        in
        let out = stat_of n in
        let cpu =
          Cost.cpu_minutes ~scheme_of ~node:n
            ~child_stats:(List.map (fun (c, _) -> stat_of c) child_tables)
            ~out_stats:out
        in
        let io_bytes =
          Estimate.table_bytes out
          +. List.fold_left
               (fun a (c, _) -> a +. Estimate.table_bytes (stat_of c))
               0.0 child_tables
        in
        let exec_cost =
          (cpu *. r_s.Pricing.cpu_per_min)
          +. (io_bytes /. 1e9 *. r_s.Pricing.io_per_gb)
        in
        let enc_out =
          Attr.Map.filter (fun a _ -> Attr.Set.mem a (Plan.schema n)) child_enc
        in
        let choice =
          (if Authz.Candidates.is_source_side n then []
           else [ (Plan.id n, s) ])
          @ List.concat_map (fun (_, _, ch) -> ch) picked
        in
        (s, { cost = child_cost +. exec_cost; enc = enc_out; choice }))
      subjects
  in
  options plan

let best_entry table =
  match table with
  | [] -> invalid_arg "Assign: empty candidate table"
  | first :: rest ->
      List.fold_left
        (fun (bs, (be : entry)) (s, e) ->
          if e.cost < be.cost then (s, e) else (bs, be))
        first rest

let optimize ~candidates ~policy ~config ~pricing ~stats ~scheme_of plan =
  let table =
    solve ~candidates ~policy ~config ~pricing ~stats ~scheme_of plan
  in
  let _, e = best_entry table in
  List.fold_left
    (fun acc (id, s) -> Authz.Imap.add id s acc)
    Authz.Imap.empty e.choice

let enumerate candidates plan =
  let assignable =
    List.filter
      (fun n -> not (Authz.Candidates.is_source_side n))
      (Plan.nodes plan)
  in
  List.fold_left
    (fun acc n ->
      let cands =
        Authz.Subject.Set.elements
          (Authz.Candidates.candidates_of candidates n)
      in
      List.concat_map
        (fun partial ->
          List.map (fun s -> Authz.Imap.add (Plan.id n) s partial) cands)
        acc)
    [ Authz.Imap.empty ] assignable
