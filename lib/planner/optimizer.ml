open Relalg

type result = {
  config : Authz.Opreq.config;
  candidates : Authz.Candidates.t;
  assignment : Authz.Subject.t Authz.Imap.t;
  extended : Authz.Extend.t;
  clusters : Authz.Plan_keys.cluster list;
  requests : Authz.Dispatch.request list;
  cost : Cost.breakdown;
  scheme_of : Attr.t -> Mpq_crypto.Scheme.t;
}

exception No_candidate of string
exception User_not_authorized of string
exception Verification_failed of Verify.Diag.t list

let self_check_message diags =
  "planner self-check failed:\n"
  ^ Verify.Diag.render (Verify.Diag.errors diags)

(* Post-planning assertion gate: the independent verifier re-derives
   every invariant over the finished artifacts. Minimality findings are
   warnings, so only Error-severity diagnostics abort. *)
let assert_verified ~policy ~config extended clusters requests =
  let input =
    { Verify.Verifier.policy; config; extended; clusters; requests }
  in
  let diags = Obs.with_span "planner.self_check" (fun () -> Verify.Verifier.run input) in
  if Verify.Diag.has_errors diags then raise (Verification_failed diags)

(* The serving layer's cache key is the planner's entire input: the
   environment half (policy, config, prices, network, recipient,
   latency bound) changes rarely and is cached by the service; the
   query half is recomputed per request. *)
let environment_fingerprint ?(tenant = "default") ~policy ~subjects
    ?(config = Authz.Opreq.default) ?(pricing = Pricing.make ())
    ?(network = Network.make ()) ?deliver_to ?max_latency () =
  let buf = Buffer.create 256 in
  Fingerprint.field buf "mpq-env-v2";
  (* the tenant component is the multi-tenant leakage gate: two tenants
     with byte-identical policies, subjects, prices and networks still
     get disjoint environment fingerprints — and therefore disjoint
     plan-cache and sub-plan-cache key spaces — because this field
     differs. Isolation is a key-space property, not a lock property. *)
  Fingerprint.field buf ("tenant:" ^ tenant);
  Fingerprint.field buf (Fingerprint.of_policy policy);
  Fingerprint.list_field buf Fingerprint.of_subject subjects;
  Fingerprint.field buf (Fingerprint.of_config config);
  Fingerprint.field buf (Pricing.fingerprint pricing);
  Fingerprint.field buf (Network.fingerprint network);
  (match deliver_to with
  | None -> Fingerprint.field buf "none"
  | Some s ->
      Fingerprint.field buf "some";
      Fingerprint.field buf (Fingerprint.of_subject s));
  (match max_latency with
  | None -> Fingerprint.field buf "none"
  | Some l ->
      Fingerprint.field buf "some";
      Fingerprint.float_field buf l);
  Buffer.contents buf

let cache_key_of ~env qfp =
  let buf = Buffer.create 512 in
  Fingerprint.field buf "mpq-plan-cache-v1";
  Fingerprint.field buf qfp;
  Fingerprint.field buf env;
  Buffer.contents buf

let plan ~policy ~subjects ?(config = Authz.Opreq.default)
    ?(pricing = Pricing.make ()) ?(network = Network.make ())
    ?(base = fun _ -> None) ?deliver_to ?max_latency query =
  Obs.with_span "planner.plan" @@ fun () ->
  let config = Authz.Opreq.resolve_conflicts config query in
  (* Sec. 6: the querying user must be authorized for the query's inputs
     (the projected base relations). *)
  (match deliver_to with
  | None -> ()
  | Some user ->
      let view = Authz.Authorization.view policy user in
      let rec check_inputs n =
        if
          Authz.Candidates.is_source_side n
          && not (Authz.Authorized.is_authorized view (Authz.Profile.of_plan n))
        then
          raise
            (User_not_authorized
               (Printf.sprintf "%s is not authorized for input %s"
                  (Authz.Subject.name user) (Plan.operator_name n)))
        else if not (Authz.Candidates.is_source_side n) then
          List.iter check_inputs (Plan.children n)
      in
      check_inputs query);
  let candidates =
    Obs.with_span "planner.candidates" (fun () ->
        Authz.Candidates.compute ~policy ~subjects ~config query)
  in
  Authz.Imap.iter
    (fun id set ->
      if Authz.Subject.Set.is_empty set then
        let name =
          match Plan.find query id with
          | Some n -> Plan.operator_name n
          | None -> string_of_int id
        in
        raise
          (No_candidate
             (Printf.sprintf
                "operation %s admits no authorized executor under the policy"
                name)))
    candidates;
  (* Facts that depend on the query and config only, derived once for
     every round and local-search move below: the conservative schemes,
     the first stage of the actual-scheme derivation, and the extender's
     per-node facts.

     The extender, the actual-scheme derivation and the coster also keep
     what they build per subtree for the rest of this call (see
     DESIGN.md, "Incremental evaluation"): an assignment that differs
     from an earlier one in one node rebuilds only that node's path to
     the root and the subtrees whose inputs changed. *)
  let conservative = Authz.Opreq.schemes config query in
  let actual_schemes = Authz.Plan_keys.actual_schemes ~original:query in
  let extend = Authz.Extend.extender ~policy ~config ?deliver_to query in
  let price = Cost.coster ~pricing ~network ~base in
  (* Extended nodes an evaluation built, against those it took from an
     earlier one: the extender's shared profile table gains one entry
     per node it builds (extend.mli). Only counted when tracing. *)
  let recorded = ref 0 in
  let count_nodes ~counted (ext : Authz.Extend.t) =
    let total = Hashtbl.length ext.Authz.Extend.profiles in
    let built = total - !recorded in
    recorded := total;
    if counted && Obs.enabled () then begin
      Obs.incr ~by:built "planner.evaluate.nodes_built";
      Obs.incr
        ~by:(Plan.size ext.Authz.Extend.plan - built)
        "planner.evaluate.nodes_reused"
    end
  in
  (* One planning round: DP under a scheme hypothesis, extend, then read
     the actual schemes and exact cost off the extended plan. The first
     round uses the conservative (worst-case) schemes; the second re-runs
     the DP under the schemes the first round's plan actually needs —
     e.g. an attribute only aggregated in plaintext at its authority
     drops from Paillier to cheap randomized encryption, unblocking
     delegation. The cheaper of the two rounds wins. *)
  let round cands scheme_of =
    Obs.with_span "planner.round" @@ fun () ->
    let stats =
      Obs.with_span "planner.estimate" (fun () ->
          Estimate.annotate ~scheme_of ~base query)
    in
    let assignment =
      Obs.with_span "planner.dp" (fun () ->
          Assign.optimize ~candidates:cands ~policy ~config ~pricing ~stats
            ~scheme_of query)
    in
    let extended =
      Obs.with_span "planner.extend" (fun () -> extend assignment)
    in
    count_nodes ~counted:false extended;
    let actual = actual_schemes extended in
    let cost =
      Obs.with_span "planner.cost" (fun () ->
          price ~scheme_of:actual extended)
    in
    (assignment, extended, actual, cost)
  in
  let ((_, _, scheme1, _) as r1) = round candidates conservative in
  (* Fallback round without providers: the DP's edge model is heuristic
     (Def. 5.4's ancestor-driven encryption is priced only approximately),
     so guarantee we never lose to the provider-free plan. *)
  let no_providers =
    Authz.Imap.map
      (Authz.Subject.Set.filter (fun s ->
           s.Authz.Subject.role <> Authz.Subject.Provider))
      candidates
  in
  let rounds =
    [ r1; round candidates scheme1 ]
    @
    if Authz.Imap.exists (fun _ s -> Authz.Subject.Set.is_empty s) no_providers
    then []
    else [ round no_providers conservative ]
  in
  (* the paper's threshold: minimize cost subject to latency <= bound;
     if nothing qualifies, minimize latency instead *)
  let better ((_, _, _, a) as ra) ((_, _, _, b) as rb) =
    match max_latency with
    | None -> if Cost.total b < Cost.total a then rb else ra
    | Some bound ->
        let ok c = c.Cost.latency <= bound in
        if ok a && ok b then if Cost.total b < Cost.total a then rb else ra
        else if ok a then ra
        else if ok b then rb
        else if b.Cost.latency < a.Cost.latency then rb
        else ra
  in
  let seed =
    match rounds with
    | [] -> assert false
    | first :: rest -> List.fold_left better first rest
  in
  (* Exact local search: the DP's edge model is heuristic (Def. 5.4's
     ancestor term and the uniformity repairs are priced approximately),
     so polish the winner with one sweep: re-assign one node at a time,
     in id order, to each of its other candidates, re-costing the real
     extension, and keep every improvement. A second sweep changes no
     TPC-H plan. Only planner rejections (no candidate, or an extension
     refusing the assignment with Invalid_argument) discard a move;
     genuine failures — Stack_overflow, Out_of_memory, verifier bugs —
     must propagate. *)
  let evaluate assignment =
    Obs.with_span "planner.evaluate" @@ fun () ->
    Obs.incr "planner.evaluate.calls";
    let extended = extend assignment in
    count_nodes ~counted:true extended;
    let actual = actual_schemes extended in
    let cost = price ~scheme_of:actual extended in
    (assignment, extended, actual, cost)
  in
  let sweep current =
    Obs.with_span "planner.sweep" @@ fun () ->
    Authz.Imap.fold
      (fun id cands best ->
        Authz.Subject.Set.fold
          (fun s ((assignment, _, _, _) as best) ->
            if Authz.Subject.equal (Authz.Imap.find id assignment) s then best
            else begin
              Obs.incr "planner.sweep.moves";
              match evaluate (Authz.Imap.add id s assignment) with
              | result -> better best result
              | exception (No_candidate _ | Invalid_argument _) ->
                  Obs.incr "planner.sweep.discarded";
                  best
            end)
          cands best)
      candidates current
  in
  let assignment, extended, scheme_of, cost = sweep seed in
  let extended = Authz.Extend.own extended in
  let clusters =
    Obs.with_span "planner.keys" (fun () ->
        Authz.Plan_keys.compute ~config ~original:query extended)
  in
  let requests =
    Obs.with_span "planner.dispatch" (fun () ->
        Authz.Dispatch.requests extended clusters)
  in
  assert_verified ~policy ~config extended clusters requests;
  { config; candidates; assignment; extended; clusters; requests; cost;
    scheme_of }

let report r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "=== extended plan ===\n";
  Buffer.add_string buf (Authz.Extend.to_ascii r.extended);
  Buffer.add_string buf "\n=== key clusters ===\n";
  List.iter
    (fun c ->
      Buffer.add_string buf (Format.asprintf "%a\n" Authz.Plan_keys.pp_cluster c))
    r.clusters;
  Buffer.add_string buf "\n=== dispatch ===\n";
  List.iter
    (fun req ->
      Buffer.add_string buf
        (Format.asprintf "%a\n" Authz.Dispatch.pp_request req))
    r.requests;
  Buffer.add_string buf (Format.asprintf "\n=== cost ===\n%a\n" Cost.pp r.cost);
  List.iter
    (fun (s, v) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-4s $%.6f\n" (Authz.Subject.name s) v))
    r.cost.Cost.per_subject;
  Buffer.contents buf
