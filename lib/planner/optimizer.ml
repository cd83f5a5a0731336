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
  (* The exact search prices every subtree it builds under the schemes
     the finished plan will use (see Assign): the paper's rule applied
     to what the plan actually computes on ciphertext. *)
  let pick =
    Obs.with_span "planner.dp" (fun () ->
        Assign.optimize ~candidates ~policy
          ~builder:(Authz.Extend.builder ~policy ~config ?deliver_to query)
          ~pricing ~network ~base
          ~conservative:(Authz.Opreq.schemes config query)
          ?max_latency ())
  in
  let assignment = pick.Assign.assignment and extended = pick.Assign.extended
  and cost = pick.Assign.cost in
  let scheme_of = Authz.Plan_keys.actual_schemes ~original:query extended in
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
