type t = {
  id : string;
  mutable policy : Authz.Authorization.t;
  mutable subjects : Authz.Subject.t list;
  pricing : Planner.Pricing.t;
  deliver_to : Authz.Subject.t option;
  mutable env : string;
  mutable epoch : int;
  mutable queries : int;
  mutable hits : int;
  mutable misses : int;
  mutable rejections : int;
  mutable expired : int;
  mutable invalidated : int;
}

let default_id = "default"

let compute_env t =
  Planner.Optimizer.environment_fingerprint ~tenant:t.id ~policy:t.policy
    ~subjects:t.subjects ~pricing:t.pricing ?deliver_to:t.deliver_to ()

let make ~id ?(pricing = Planner.Pricing.make ()) ?deliver_to ~policy ~subjects
    () =
  let deliver_to =
    match deliver_to with
    | Some _ as d -> d
    | None ->
        List.find_opt
          (fun s -> s.Authz.Subject.role = Authz.Subject.User)
          subjects
  in
  let t =
    { id; policy; subjects; pricing; deliver_to; env = ""; epoch = 0;
      queries = 0; hits = 0; misses = 0; rejections = 0; expired = 0;
      invalidated = 0 }
  in
  t.env <- compute_env t;
  t

let rotate t =
  t.env <- compute_env t;
  t.epoch <- t.epoch + 1;
  Obs.incr "serve.env_rotations"

type registry = (string, t) Hashtbl.t

let registry () : registry = Hashtbl.create 4

let add (r : registry) t =
  if Hashtbl.mem r t.id then
    invalid_arg (Printf.sprintf "Tenancy.add: tenant %S already registered" t.id);
  Hashtbl.replace r t.id t

let find (r : registry) id = Hashtbl.find_opt r id
let ids (r : registry) =
  List.sort String.compare (Hashtbl.fold (fun id _ acc -> id :: acc) r [])
let count (r : registry) = Hashtbl.length r
let iter f (r : registry) =
  (* sorted id order, so per-tenant reporting is deterministic *)
  List.iter (fun id -> f (Hashtbl.find r id)) (ids r)

type stats = {
  queries : int;
  hits : int;
  misses : int;
  rejections : int;
  expired : int;
  invalidated : int;
  epoch : int;
}

let stats (t : t) =
  { queries = t.queries; hits = t.hits; misses = t.misses;
    rejections = t.rejections; expired = t.expired;
    invalidated = t.invalidated; epoch = t.epoch }
