open Relalg

(* Cached verdicts: a verified plan, or the policy's rejection of the
   query. Both are deterministic in (query, environment), so both are
   sound to replay until the environment changes — and, with the
   dependency analysis below, across policy changes that provably do
   not touch what the verdict consulted. *)
type denial_kind = No_candidate | User_denied | Verify_failed

type verdict =
  | Planned of Planner.Optimizer.result
  | Denied of { message : string; kind : denial_kind }

(* What a plan-cache entry holds. [exec_plan] is the hash-consed
   (DAG-interned) executable form of the extended plan, when sharing is
   on: structurally identical to [extended.plan], with subtrees shared
   across every cached plan of the service. Execution runs this form
   so the sub-plan result cache and the batch grouping see one
   physical node per distinct shape. *)
type plan_value = { verdict : verdict; exec_plan : Plan.t option }

(* What either cache tier stores per key: a plan-cache [plan_value],
   or a sub-plan tier's result table. A sub-plan key covers everything
   the bytes depend on — subtree structure, preorder position when
   ciphertext is produced inside (encryption randomness is
   position-derived), the key clusters and schemes over the subtree's
   encrypted attributes, the executor assignment, and the environment
   fingerprint — so equal key implies equal bytes by construction.

   A cached table may hold sealed det, OPE and rnd columns
   (Engine.Enc_exec), whose bytes are computed when a cell is read,
   possibly by a later hit on another domain. That is sound: the cache
   is this service's own memory, keyed by tenant and position like any
   other entry; a sealed column's closure holds the same store key its
   bytes would have come from when it was built, so a later read gives
   the bytes an eager encryption would have; and the ciphers only read
   that immutable key, so concurrent reads need no lock.

   [deps] is the authorization dependency set (Analysis.Deps; empty
   for denials — see [set_policy]); a sub-plan result carries the set of
   the plan whose execution stored it. [base] is the key minus the
   environment — the structural query fingerprint for a plan, the base
   key for a sub-plan — kept so surviving entries can be rekeyed under
   a new environment fingerprint. [env] is the environment the value
   was computed under, so entries stranded by a non-policy rotation
   are never migrated into the current epoch by a later policy delta.
   [tenant] is redundant with the tenant component inside [env] (keys
   of different tenants cannot collide), carried explicitly so a hit
   can assert it ([owned]) and fail closed if the key-space argument
   were ever broken. *)
type 'v entry = {
  value : 'v;
  deps : Analysis.Fact.Set.t;
  base : string;
  env : string;
  tenant : string;
}

type t = {
  tenants : Tenancy.registry;
  base : Planner.Estimate.base_stats;
  udfs : (string * Engine.Exec.udf) list;
  tables : (string * Engine.Table.t) list;
  seed : int64;
  pool : Par.pool option;
  max_batch : int;
  now : unit -> float;  (* deadline clock, injectable for tests *)
  cache : plan_value entry Lru.t;
  sharing : bool;
  dag : Planner.Dag.t;
  subcache : Engine.Table.t entry Lru.t;
  mutable keys : Engine.Enc_exec.store;
  mutable queries : int;
  mutable rejections : int;
  mutable expired : int;
  mutable invalidated : int;
  mutable reverified : int;
  mutable retained : int;
  mutable subplan_hits : int;
  mutable subplan_stores : int;
  mutable subplan_invalidated : int;
  mutable shared_execs : int;
  mutable cross_tenant_hits : int;
  mutable plan_ms_total : float;
  mutable exec_ms_total : float;
}

type status = Hit | Miss

type outcome =
  | Table of Engine.Table.t
  | Rejected of string
  | Expired of string

type response = {
  outcome : outcome;
  status : status;
  key : string;
  tenant : string;
  planned : Planner.Optimizer.result option;
  plan_ms : float;
  exec_ms : float;
}

type request = { query : Plan.t; deadline : float option; tenant : string }

let request ?deadline ?(tenant = Tenancy.default_id) query =
  { query; deadline; tenant }

(* bound of the sub-plan result tier, in entries *)
let subcache_capacity = 256

(* Cluster keys derive from the seed alone, never from the policy, so
   one store serves every execution until [invalidate]. *)
let key_store seed = Engine.Enc_exec.store (Mpq_crypto.Keyring.create ~seed ())

type policy_conflict =
  | Dropped_relation of string
  | Missing_column of { relation : string; attr : string }
  | Column_type of { relation : string; attr : string; declared : Schema.column_type }

let conflict_message = function
  | Dropped_relation r -> Printf.sprintf "policy drops loaded relation %s" r
  | Missing_column { relation; attr } ->
      Printf.sprintf "%s.%s is not a column of the loaded table" relation attr
  | Column_type { relation; attr; declared } ->
      Printf.sprintf "%s.%s is declared %s but the loaded column holds other values"
        relation attr (Schema.type_name declared)

(* whether every cell of a loaded column is Null or of the declared type
   (an int counts as a float) *)
let holds ty col =
  let cell = function
    | Value.Null -> true
    | Value.Int _ -> ty = Schema.Tint || ty = Schema.Tfloat
    | Value.Float _ -> ty = Schema.Tfloat
    | Value.Str _ -> ty = Schema.Tstring
    | Value.Date _ -> ty = Schema.Tdate
    | Value.Bool _ -> ty = Schema.Tbool
    | Value.Enc _ -> false
  in
  match col with
  | Column.Values a -> Array.for_all cell a
  | Column.Sealed _ -> false
  | typed -> (* one kind throughout *) Column.length typed = 0 || cell (Column.get typed 0)

(* The first way [policy] disagrees with [tables]: it drops a relation
   declared in [current] (the schemas of the policy it replaces) that a
   table holds, or declares a loaded relation with a column the table
   lacks or whose cells are not of the declared type. A relation
   declared as [current] declares it was checked when that policy was
   installed. *)
let conflict tables ~current policy =
  let fresh = Authz.Authorization.schemas policy in
  let named name = List.find_opt (fun s -> String.equal s.Schema.name name) in
  let loaded s = List.assoc_opt s.Schema.name tables in
  let dropped =
    List.find_opt (fun s -> loaded s <> None && named s.Schema.name fresh = None) current
  in
  match dropped with
  | Some s -> Some (Dropped_relation s.Schema.name)
  | None ->
      List.find_map
        (fun s ->
          match loaded s with
          | Some table
            when not
                   (match named s.Schema.name current with
                   | Some c -> c.Schema.columns = s.Schema.columns
                   | None -> false) ->
              List.find_map
                (fun (a, ty) ->
                  let relation = s.Schema.name and attr = Attr.name a in
                  match Engine.Table.col_index_opt table a with
                  | None -> Some (Missing_column { relation; attr })
                  | Some i when not (holds ty (Engine.Table.columns table).(i)) ->
                      Some (Column_type { relation; attr; declared = ty })
                  | Some _ -> None)
                s.Schema.columns
          | _ -> None)
        fresh

exception Policy_conflict of policy_conflict

(* a policy a new tenant starts from replaces none *)
let check_tables tables policy =
  match conflict tables ~current:[] policy with
  | Some c -> raise (Policy_conflict c)
  | None -> ()

let create ?(cache_capacity = 128) ?(max_batch = 32) ?pool ?config ?pricing
    ?network ?(base = fun _ -> None) ?deliver_to ?max_latency ?(udfs = [])
    ?(seed = 42L) ?(sharing = true) ?(now = Unix.gettimeofday) ~policy
    ~subjects ~tables () =
  if max_batch < 1 then
    invalid_arg (Printf.sprintf "Service.create: max_batch %d < 1" max_batch);
  check_tables tables policy;
  let tenants = Tenancy.registry () in
  Tenancy.add tenants
    (Tenancy.make ~id:Tenancy.default_id ?config ?pricing ?network
       ?deliver_to ?max_latency ~policy ~subjects ());
  let dag = Planner.Dag.create () in
  { tenants; base; udfs; tables; seed; pool; max_batch; now;
    cache = Lru.create ~capacity:cache_capacity; sharing; dag;
    subcache = Lru.create ~capacity:subcache_capacity;
    keys = key_store seed;
    queries = 0; rejections = 0; expired = 0; invalidated = 0;
    reverified = 0; retained = 0; subplan_hits = 0; subplan_stores = 0;
    subplan_invalidated = 0; shared_execs = 0; cross_tenant_hits = 0;
    plan_ms_total = 0.0; exec_ms_total = 0.0 }

let tenant_exn t id =
  match Tenancy.find t.tenants id with
  | Some tn -> tn
  | None -> invalid_arg (Printf.sprintf "Service: unknown tenant %S" id)

let default_tenant t = tenant_exn t Tenancy.default_id

let add_tenant t ~id ?policy ?subjects ?config ?pricing ?network ?deliver_to
    ?max_latency () =
  let d = default_tenant t in
  let pick o f = match o with Some v -> v | None -> f d in
  let policy = pick policy (fun d -> d.Tenancy.policy) in
  check_tables t.tables policy;
  Tenancy.add t.tenants
    (Tenancy.make ~id
       ~config:(pick config (fun d -> d.Tenancy.config))
       ~pricing:(pick pricing (fun d -> d.Tenancy.pricing))
       ~network:(pick network (fun d -> d.Tenancy.network))
       ?deliver_to:
         (* a tenant with its own subjects gets its own recipient (the
            first [User] among them) unless one is named: the default
            tenant's recipient may not even be one of its subjects *)
         (match (deliver_to, subjects) with
         | Some _, _ | None, Some _ -> deliver_to
         | None, None -> d.Tenancy.deliver_to)
       ?max_latency:
         (match max_latency with
         | Some _ as x -> x
         | None -> d.Tenancy.max_latency)
       ~policy
       ~subjects:(pick subjects (fun d -> d.Tenancy.subjects))
       ());
  Obs.incr "serve.tenants"

let tenant_ids t = Tenancy.ids t.tenants

let tenant_stats t =
  let acc = ref [] in
  Tenancy.iter (fun tn -> acc := (tn.Tenancy.id, Tenancy.stats tn) :: !acc)
    t.tenants;
  List.rev !acc

let owned (tn : Tenancy.t) (e : _ entry) = String.equal e.tenant tn.Tenancy.id

(* one static verifier pass over a plan, under the tenant's policy *)
let verify (tn : Tenancy.t) (r : Planner.Optimizer.result) =
  Verify.Verifier.run
    { Verify.Verifier.policy = tn.Tenancy.policy;
      config = r.Planner.Optimizer.config;
      extended = r.Planner.Optimizer.extended;
      clusters = r.Planner.Optimizer.clusters;
      requests = r.Planner.Optimizer.requests }

(* ---- sub-plan cache keys ----

   A subtree occurrence's key must cover every input its result bytes
   are a function of:

   - structure: the collision-free structural fingerprint;
   - position: ciphertext bytes derive randomness from preorder
     positions, so any subtree producing or carrying ciphertext is
     keyed by its root position (crypto-free subtrees — no
     Encrypt/Decrypt, no encrypted-at-rest base — are
     position-independent and share across positions);
   - key clusters: each encrypted attribute's cluster id and scheme
     (cluster keys derive from the keyring by cluster id; clustering
     is a whole-query property, so the same subtree under different
     clusterings yields different bytes);
   - assignment: the executors of the subtree's nodes, conservatively
     — execution is locally simulated so bytes do not depend on it,
     but the dependency facts stored for invalidation do;
   - environment: the leakage gate. Structurally equal subtrees
     planned under different policies, subject populations, recipients
     or configs — or for different {e tenants}, whose ids are a field
     of the environment fingerprint — must never observe each other's
     results (the paper's series-of-queries rule); the environment
     fingerprint separates them even though their bytes would
     coincide. *)

let kfield s = string_of_int (String.length s) ^ ":" ^ s
let subcache_key ~env base = "mpq-subplan-v1|" ^ base ^ kfield env

let subtree_crypto_attrs plan =
  Plan.fold
    (fun acc n ->
      match Plan.node n with
      | Plan.Encrypt (a, _) | Plan.Decrypt (a, _) -> Attr.Set.union a acc
      | Plan.Base s -> Attr.Set.union (Schema.stored_encrypted s) acc
      | _ -> acc)
    Attr.Set.empty plan

(* Executor name per preorder position of the extended plan — the
   bridge between the DAG-interned executable plan (whose node ids are
   fresh) and the id-keyed assignment: the two are structurally
   identical, so position [p] in one is position [p] in the other. *)
let subjects_by_pos (extended : Authz.Extend.t) =
  let positions = Plan.preorder_positions extended.Authz.Extend.plan in
  let arr = Array.make (Plan.size extended.Authz.Extend.plan) "" in
  Plan.iter
    (fun node ->
      match Hashtbl.find_opt positions (Plan.id node) with
      | Some p ->
          arr.(p) <-
            (match
               Authz.Imap.find_opt (Plan.id node)
                 extended.Authz.Extend.assignment
             with
            | Some s -> Authz.Subject.name s
            | None -> "")
      | None -> ())
    extended.Authz.Extend.plan;
  arr

(* The base key: everything but the environment. *)
let base_key_of t ~clusters ~subjects ~pos n =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (kfield (Planner.Dag.fingerprint t.dag n));
  let crypto_free =
    match Planner.Dag.find t.dag n with
    | Some i -> i.Planner.Dag.crypto_free
    | None -> Planner.Dag.crypto_free n
  in
  Buffer.add_string buf
    (kfield (if crypto_free then "" else string_of_int pos));
  Attr.Set.iter
    (fun a ->
      Buffer.add_string buf (kfield (Attr.name a));
      match Authz.Plan_keys.cluster_of_attr clusters a with
      | Some c ->
          Buffer.add_string buf (kfield c.Authz.Plan_keys.id);
          Buffer.add_string buf
            (kfield (Mpq_crypto.Scheme.name c.Authz.Plan_keys.scheme))
      | None -> Buffer.add_string buf (kfield ""))
    (subtree_crypto_attrs n);
  let sz = Plan.size n in
  for p = pos to pos + sz - 1 do
    Buffer.add_string buf (kfield subjects.(p))
  done;
  Buffer.contents buf

(* The positions at which an execution of [exec_plan] may consult or
   feed the sub-plan cache: the root (whole-result memoization — a
   cache-hit query's re-execution becomes one lookup) plus each
   {e maximal} shared subtree (admitting nested shared nodes under an
   already-admitted one would store the same bytes twice; a query
   where only the inner node is shared admits it as its own maximal
   node). Computed on the coordinator — DAG fingerprints and
   occurrence counts are not synchronized. *)
let memo_positions t (tn : Tenancy.t) (r : Planner.Optimizer.result)
    exec_plan =
  let subjects = subjects_by_pos r.Planner.Optimizer.extended in
  let clusters = r.Planner.Optimizer.clusters in
  let keys = Hashtbl.create 16 in
  let rec walk ~search pos n =
    let shared = Planner.Dag.occurrences t.dag n > 1 in
    if pos = 0 || (search && shared) then begin
      let base = base_key_of t ~clusters ~subjects ~pos n in
      Hashtbl.replace keys pos (subcache_key ~env:tn.Tenancy.env base, base)
    end;
    List.iter
      (fun (c, p) -> walk ~search:(not shared) p c)
      (Plan.child_positions n pos)
  in
  walk ~search:true 0 exec_plan;
  keys

type subcache_event =
  | Sub_hit of { pos : int; key : string }
  | Sub_foreign of { pos : int; key : string }
  | Sub_store of {
      pos : int;
      key : string;
      base : string;
      table : Engine.Table.t;
    }

let event_pos = function
  | Sub_hit e -> e.pos
  | Sub_foreign e -> e.pos
  | Sub_store e -> e.pos

(* Worker-domain-safe memo closures over the subcache: lookups are
   pure [Lru.peek]s against a snapshot nothing mutates while workers
   run, every observation is buffered under a mutex, and the
   coordinator replays the buffer — sorted by position, so recency
   follows preorder, not the order the executor met the nodes in —
   after the exec phase. The subcache therefore evolves identically at
   any job count, like the plan cache.

   The tenant check on a hit is the fail-closed armor over the
   key-space isolation argument: the environment component inside the
   key already makes a foreign entry unreachable, so the check can
   only fire if key construction were broken — in which case the
   result is refused, the event is counted (the bench and the
   isolation property assert the counter stays 0), and the subtree is
   recomputed. *)
let make_memo t (tn : Tenancy.t) keys =
  let mutex = Mutex.create () in
  let events = ref [] in
  let record e =
    Mutex.lock mutex;
    events := e :: !events;
    Mutex.unlock mutex
  in
  let memo =
    { Engine.Exec.lookup =
        (fun ~pos _plan ->
          match Hashtbl.find_opt keys pos with
          | None -> None
          | Some (key, _) -> (
              match Lru.peek t.subcache key with
              | Some e when not (owned tn e) ->
                  record (Sub_foreign { pos; key });
                  None
              | Some e ->
                  record (Sub_hit { pos; key });
                  Some e.value
              | None -> None));
      store =
        (fun ~pos _plan table ->
          match Hashtbl.find_opt keys pos with
          | None -> ()
          | Some (key, base) -> record (Sub_store { pos; key; base; table = table () }));
    }
  in
  (memo, events)

(* Coordinator-side replay of one execution's buffered events, in
   position order: hits refresh recency and count; stores insert under
   [deps], the dependency set of the plan whose execution stored them
   (a superset of the subtree's own facts). A key two same-round
   executions both computed is stored once — the bytes are identical by
   key construction. *)
let replay_subcache t (tn : Tenancy.t) deps events =
  let evs =
    List.sort (fun a b -> compare (event_pos a) (event_pos b)) !events
  in
  List.iter
    (function
      | Sub_hit { key; _ } ->
          ignore (Lru.find t.subcache key);
          t.subplan_hits <- t.subplan_hits + 1;
          Obs.incr "serve.subcache.hits"
      | Sub_foreign _ ->
          t.cross_tenant_hits <- t.cross_tenant_hits + 1;
          Obs.incr "serve.cross_tenant_hits"
      | Sub_store { key; base; table; _ } ->
          if not (Lru.mem t.subcache key) then begin
            t.subplan_stores <- t.subplan_stores + 1;
            Obs.incr "serve.subcache.stores";
            Lru.add t.subcache key
              { value = table; deps; base; env = tn.Tenancy.env;
                tenant = tn.Tenancy.id }
          end)
    evs

(* An entry a policy change of [tn] must migrate: the tenant's own,
   computed in the epoch that just ended. Another tenant's entries, and
   ones stranded by an earlier non-policy rotation, are not ours. *)
let migrating (tn : Tenancy.t) ~old_env (e : _ entry) =
  owned tn e && String.equal e.env old_env

(* One walk of a cache tier: each migrating entry is dropped unless
   [keep] says otherwise, and a kept one is rekeyed under the new
   environment fingerprint, recency intact. Everything else passes
   through with its key and recency. Returns the number dropped. *)
let migrate_tier lru ~key (tn : Tenancy.t) ~old_env keep =
  Lru.remap lru (fun k (e : _ entry) ->
      if not (migrating tn ~old_env e) then Some (k, e)
      else if keep e then
        Some (key ~env:tn.Tenancy.env e.base, { e with env = tn.Tenancy.env })
      else None)

(* Incremental invalidation (policy changes only): diff the old and new
   policies as fact sets and migrate each same-epoch entry {e of the
   mutated tenant} under the protocol the dependency analysis
   justifies (see lib/analysis):

   - a removed fact in the entry's dependency set may have been
     load-bearing for its verification: drop;
   - added facts cannot break Def. 4.1 checks (grants are monotone),
     but can make the cached plan cost-stale; the entry is kept after
     one incremental verifier pass re-certifies it — no replanning;
   - a delta disjoint from the dependency set provably cannot change
     any verdict: the entry is rekeyed under the new environment
     fingerprint, recency intact.

   Entries belonging to other tenants pass through untouched — their
   environment fingerprints did not rotate, their keys stay reachable,
   and their recency positions are preserved (the per-tenant
   invalidation test asserts exactly this). Denials carry no plan to
   compute dependencies from, so they use the monotonicity argument
   alone: planner denials (no candidate, user gate) cannot be fixed by
   revoking more, so they survive revoke-only deltas and are dropped
   on any grant; verifier denials are dropped on any view change
   (re-planning under the new policy may choose a different extension
   entirely).

   Sub-plan results migrate under a simpler protocol: result bytes are
   policy-independent (the key fixes them), so there is nothing to
   re-verify — the dependency set gates only whether reusing the
   result remains {e authorized}. A removed fact the storing plan's
   certification consumed (a superset of the subtree's) drops the entry
   for every consumer at once (shared nodes invalidate once, not per
   query); grants are monotone, so any other delta rekeys the entry. *)
let migrate t (tn : Tenancy.t) ~old_policy ~old_env =
  let dep_subjects = ref Authz.Subject.Set.empty in
  let _ =
    Lru.remap t.cache (fun key e ->
        if migrating tn ~old_env e then
          dep_subjects :=
            Authz.Subject.Set.union (Analysis.Deps.subjects_of e.deps)
              !dep_subjects;
        Some (key, e))
  in
  let subjects =
    tn.Tenancy.subjects
    @ Authz.Subject.Set.elements !dep_subjects
    @ (match tn.Tenancy.deliver_to with Some u -> [ u ] | None -> [])
  in
  match
    Obs.with_span "analysis.diff" (fun () ->
        Analysis.Delta.diff ~subjects ~old_policy
          ~new_policy:tn.Tenancy.policy ())
  with
  | `Incompatible ->
      (* schema change: old entries are not comparable fact-by-fact.
         The fingerprint rotation already happened, so they are
         unreachable; leave them to age out. *)
      Obs.incr "serve.invalidation.incompatible"
  | `Delta d ->
      let removed = d.Analysis.Delta.removed
      and added = d.Analysis.Delta.added in
      let any_grant = not (Analysis.Fact.Set.is_empty added) in
      let any_change = not (Analysis.Delta.is_empty d) in
      let reverified = ref 0 and retained = ref 0 in
      let keep_plan (e : plan_value entry) =
        let keep =
          match e.value.verdict with
          | Denied { kind = Verify_failed; _ } -> not any_change
          | Denied _ -> not any_grant
          | Planned r ->
              Analysis.Fact.Set.disjoint removed e.deps
              && (Analysis.Fact.Set.disjoint added e.deps
                 || begin
                      incr reverified;
                      not (Verify.Diag.has_errors (verify tn r))
                    end)
        in
        if keep then incr retained;
        keep
      in
      let dropped =
        migrate_tier t.cache ~key:Planner.Optimizer.cache_key_of tn ~old_env
          keep_plan
      in
      t.invalidated <- t.invalidated + dropped;
      tn.Tenancy.invalidated <- tn.Tenancy.invalidated + dropped;
      t.reverified <- t.reverified + !reverified;
      t.retained <- t.retained + !retained;
      Obs.incr ~by:dropped "serve.invalidation.dropped";
      Obs.incr ~by:!reverified "serve.invalidation.reverified";
      Obs.incr ~by:!retained "serve.invalidation.retained";
      let sub_dropped =
        migrate_tier t.subcache ~key:subcache_key tn ~old_env (fun e ->
            Analysis.Fact.Set.disjoint removed e.deps)
      in
      t.subplan_invalidated <- t.subplan_invalidated + sub_dropped;
      tn.Tenancy.invalidated <- tn.Tenancy.invalidated + sub_dropped;
      Obs.incr ~by:sub_dropped "serve.subcache.invalidated"

let set_policy ?subjects ?(tenant = Tenancy.default_id) t policy =
  Obs.with_span "serve.set_policy" @@ fun () ->
  let tn = tenant_exn t tenant in
  match
    conflict t.tables ~current:(Authz.Authorization.schemas tn.Tenancy.policy) policy
  with
  | Some conflict -> Error conflict
  | None ->
      let old_policy = tn.Tenancy.policy and old_env = tn.Tenancy.env in
      tn.Tenancy.policy <- policy;
      (match subjects with Some s -> tn.Tenancy.subjects <- s | None -> ());
      Obs.with_span "serve.rotate" (fun () -> Tenancy.rotate tn);
      (* a subject-population swap changes which views matter in ways
         the per-entry dependency sets cannot bound: fall back to the
         rotation the fingerprint change already performed *)
      if subjects = None then
        Obs.with_span "serve.migrate" (fun () -> migrate t tn ~old_policy ~old_env);
      Ok ()

let set_config ?(tenant = Tenancy.default_id) t config =
  let tn = tenant_exn t tenant in
  tn.Tenancy.config <- config;
  Tenancy.rotate tn

let set_pricing ?(tenant = Tenancy.default_id) t pricing =
  let tn = tenant_exn t tenant in
  tn.Tenancy.pricing <- pricing;
  Tenancy.rotate tn

let set_network ?(tenant = Tenancy.default_id) t network =
  let tn = tenant_exn t tenant in
  tn.Tenancy.network <- network;
  Tenancy.rotate tn

let invalidate t =
  Lru.clear t.cache;
  Lru.clear t.subcache;
  Planner.Dag.clear t.dag;
  t.keys <- key_store t.seed

let environment ?(tenant = Tenancy.default_id) t =
  (tenant_exn t tenant).Tenancy.env

let subjects ?(tenant = Tenancy.default_id) t =
  (tenant_exn t tenant).Tenancy.subjects

let parse ?(tenant = Tenancy.default_id) t sql =
  let tn = tenant_exn t tenant in
  let catalog = Authz.Authorization.schemas tn.Tenancy.policy in
  let plan = Mpq_sql.Sql_plan.parse_and_plan ~catalog sql in
  Planner.Join_order.reorder ~base:t.base (Planner.Rewrite.normalize plan)

let now_ms () = Unix.gettimeofday () *. 1000.0

(* Plan + verify one cold query: the optimizer's self-check is the one
   verifier pass that guards every insertion, so a [Planned] entry is
   verified by construction. *)
let plan_once t (tn : Tenancy.t) ~qfp query =
  Obs.with_span "serve.plan" @@ fun () ->
  let entry verdict =
    { value = { verdict; exec_plan = None }; deps = Analysis.Fact.Set.empty;
      base = qfp; env = tn.Tenancy.env; tenant = tn.Tenancy.id }
  in
  let denied kind message = entry (Denied { message; kind }) in
  match
    Planner.Optimizer.plan ~policy:tn.Tenancy.policy
      ~subjects:tn.Tenancy.subjects ~config:tn.Tenancy.config
      ~pricing:tn.Tenancy.pricing ~network:tn.Tenancy.network ~base:t.base
      ?deliver_to:tn.Tenancy.deliver_to ?max_latency:tn.Tenancy.max_latency
      query
  with
  | r ->
      (* deps and the DAG interning happen in [finalize], on the
         coordinator: the DAG store is shared un-synchronized state and
         this function runs in the parallel plan phase *)
      entry (Planned r)
  | exception Planner.Optimizer.No_candidate msg -> denied No_candidate msg
  | exception Planner.Optimizer.User_not_authorized msg ->
      denied User_denied msg
  | exception Planner.Optimizer.Verification_failed diags ->
      (* fail closed: a plan the verifier will not certify is never
         served (or cached as servable). The verdict — including the
         full diagnostic rendering — is deterministic in
         (query, environment): diagnostics cite canonical preorder
         positions, not allocation-counter node ids, so the complete
         message replays byte-identically from cache. *)
      denied Verify_failed (Planner.Optimizer.self_check_message diags)

(* Coordinator-side completion of a freshly planned entry, at cache
   insertion: compute the dependency facts and intern the extended
   plan into the DAG so its subtrees join the shared-node store. *)
let finalize t (tn : Tenancy.t) query entry =
  match entry.value.verdict with
  | Denied _ -> entry
  | Planned r ->
      let deps =
        Analysis.Deps.of_extended ?deliver_to:tn.Tenancy.deliver_to
          ~original:query ~extended:r.Planner.Optimizer.extended
          ~clusters:r.Planner.Optimizer.clusters ()
      in
      let exec_plan =
        if t.sharing then
          Some
            (Planner.Dag.intern t.dag
               r.Planner.Optimizer.extended.Authz.Extend.plan)
        else None
      in
      { entry with deps; value = { entry.value with exec_plan } }

let execute ?memo t (r : Planner.Optimizer.result) plan =
  Obs.with_span "serve.exec" @@ fun () ->
  (* the service's key store: ciphertext randomness derives from
     (node preorder position, row index), never from the keyring's
     shared stream, so equal seeds reproduce equal bytes — on the
     DAG-interned plan exactly as on the original tree, since the
     executor threads positions per occurrence — and a memo hit returns
     the bytes its key would compute *)
  let crypto = Engine.Enc_exec.of_store t.keys r.Planner.Optimizer.clusters in
  let ctx = Engine.Exec.context ~udfs:t.udfs ~crypto t.tables in
  Engine.Exec.run ?memo ctx plan

let run_tasks t thunks =
  match (t.pool, thunks) with
  | Some pool, _ :: _ :: _ -> Par.run_all pool thunks
  | _ -> List.map (fun f -> f ()) thunks

(* One admission-bounded round of the three-phase protocol. Requests
   whose deadline has already passed when the round starts are refused
   up front — no fingerprinting, no cache probe, no planning: a refusal
   must never disturb the cache's observable evolution. A request
   naming an unregistered tenant is likewise refused before the cache
   is touched: tenant ids come off the wire, and an unknown id must
   not be able to perturb anything observable. *)
let serve_round t requests =
  Obs.with_span "serve.batch" @@ fun () ->
  let before = Lru.stats t.cache in
  let admit_now = t.now () in
  (* phase 1 — probe: resolve every request's tenant, fingerprint the
     live ones, pick the distinct missing keys. Pure: no cache
     mutation, no recency refresh. *)
  let keyed =
    List.map
      (fun { query = q; deadline; tenant } ->
        match Tenancy.find t.tenants tenant with
        | None -> `Unknown tenant
        | Some tn -> (
            match deadline with
            | Some d when admit_now > d -> `Expired tn
            | _ ->
                let t0 = now_ms () in
                let qfp = Planner.Fingerprint.of_plan q in
                let key =
                  Planner.Optimizer.cache_key_of ~env:tn.Tenancy.env qfp
                in
                `Live (tn, q, qfp, key, deadline, now_ms () -. t0)))
      requests
  in
  let to_plan =
    List.rev
      (List.fold_left
         (fun acc -> function
           | `Unknown _ | `Expired _ -> acc
           | `Live (tn, q, qfp, key, _, _) ->
               if Lru.mem t.cache key
                  || List.mem_assoc key acc
               then acc
               else (key, (tn, q, qfp)) :: acc)
         [] keyed)
  in
  (* phase 2 — plan each distinct missing key in parallel. Planning is
     pure (the plan-node id counter is atomic), so tasks only race for
     CPU; planner rejections become cacheable Denied entries, anything
     else propagates. *)
  let planned =
    run_tasks t
      (List.map
         (fun (key, (tn, q, qfp)) () ->
           let t0 = now_ms () in
           let entry = plan_once t tn ~qfp q in
           (key, (entry, now_ms () -. t0)))
         to_plan)
  in
  (* phase 3 — replay the cache protocol sequentially in request
     order: the only phase that mutates the cache, so its evolution is
     independent of the job count. A key that repeats within the batch
     misses once and hits from then on, exactly as in serial serving.
     A hit is additionally required to belong to the requesting tenant
     — impossible to violate while keys embed the tenant id, counted
     and refused (treated as a miss, replanned) if it ever happened. *)
  let resolved =
    List.map
      (function
        | `Unknown tenant -> `Unknown tenant
        | `Expired tn -> `Expired tn
        | `Live (tn, q, qfp, key, deadline, key_ms) -> (
            let t0 = now_ms () in
            let hit =
              match Lru.find t.cache key with
              | Some entry when not (owned tn entry) ->
                  t.cross_tenant_hits <- t.cross_tenant_hits + 1;
                  Obs.incr "serve.cross_tenant_hits";
                  None
              | found -> found
            in
            match hit with
            | Some entry ->
                tn.Tenancy.hits <- tn.Tenancy.hits + 1;
                `Resolved
                  (tn, key, entry, deadline, Hit, key_ms +. (now_ms () -. t0))
            | None ->
                tn.Tenancy.misses <- tn.Tenancy.misses + 1;
                let entry, plan_ms =
                  match List.assoc_opt key planned with
                  | Some e -> e
                  | None ->
                      (* the probe saw this key resident, but an earlier
                         insertion in this very round evicted it. Replan on
                         the coordinator: a function of request order and
                         cache state only, so still job-count independent. *)
                      let p0 = now_ms () in
                      let entry = plan_once t tn ~qfp q in
                      (entry, now_ms () -. p0)
                in
                (* dependency facts + DAG interning: coordinator-only
                   state, so it happens here rather than in the
                   parallel plan phase *)
                let entry = finalize t tn q entry in
                Lru.add t.cache key entry;
                `Resolved
                  (tn, key, entry, deadline, Miss,
                   key_ms +. (now_ms () -. t0) +. plan_ms)))
      keyed
  in
  (* the second deadline checkpoint, between plan and exec: planning
     (and the cache insertion it fed) is kept — the work is not wasted,
     the entry serves future hits — but a request past its deadline is
     refused rather than executed. One clock read for the whole round
     keeps the refusal set a function of (requests, round start). *)
  let exec_now = t.now () in
  (* classify executions on the coordinator: batch-level work sharing
     groups live planned requests by cache key, so each distinct entry
     executes once per round and later occurrences alias the
     (immutable) result table — only ever within one tenant, because
     keys of different tenants cannot be equal. With sharing on,
     executions run the DAG-interned plan under the sub-plan memo
     (frozen-snapshot lookups, buffered stores). Classification order
     is request order, so the representative choice — and with it
     every observable effect — is job-count independent. *)
  let rep_seen = Hashtbl.create 8 in
  let classified =
    List.map
      (function
        | `Unknown tenant -> `Unknown tenant
        | `Expired tn -> `Expired tn
        | `Resolved (tn, key, entry, deadline, status, plan_ms) -> (
            match entry.value.verdict with
            | Denied { message; _ } ->
                `Denied (tn, key, message, status, plan_ms)
            | Planned r -> (
                match deadline with
                | Some d when exec_now > d ->
                    `Late (tn, key, r, status, plan_ms)
                | _ ->
                    if t.sharing && Hashtbl.mem rep_seen key then
                      `Alias (tn, key, r, status, plan_ms)
                    else begin
                      Hashtbl.replace rep_seen key ();
                      let memo =
                        match (t.sharing, entry.value.exec_plan) with
                        | true, Some ep ->
                            let keys = memo_positions t tn r ep in
                            let memo, events = make_memo t tn keys in
                            Some (ep, memo, events, entry.deps)
                        | _ -> None
                      in
                      `Run (tn, key, r, status, plan_ms, memo)
                    end)))
      resolved
  in
  (* execute representatives in parallel (results are
     position-deterministic). An engine error rejects only the failing
     representative and its aliases, never the rest of the round. *)
  let executed =
    run_tasks t
      (List.filter_map
         (function
           | `Run (_, key, r, _, _, memo) ->
               Some
                 (fun () ->
                   let t0 = now_ms () in
                   let outcome =
                     match
                       match memo with
                       | Some (ep, m, _, _) -> execute ~memo:m t r ep
                       | None ->
                           execute t r
                             r.Planner.Optimizer.extended.Authz.Extend.plan
                     with
                     | table -> Table table
                     | exception
                         ( Engine.Exec.Exec_error msg
                         | Engine.Enc_exec.Crypto_error msg ) ->
                         Rejected ("execution failed: " ^ msg)
                   in
                   (key, (outcome, now_ms () -. t0)))
           | _ -> None)
         classified)
  in
  (* replay the buffered sub-plan cache events sequentially, in
     request order (and position order within one execution): the only
     subcache mutations, so its evolution matches any job count. A
     failed execution's events replay too: the engine runs a plan on
     one domain, so what it looked up and stored before failing is the
     same at any job count. *)
  List.iter
    (function
      | `Run (tn, _, _, _, _, Some (_, _, events, deps)) ->
          replay_subcache t tn deps events
      | _ -> ())
    classified;
  (* assemble responses in request order, each tagged with the tenant
     it was served for (or the unknown id it named) *)
  let responses =
    List.map
      (function
        | `Unknown tenant ->
            ( { outcome = Rejected (Printf.sprintf "unknown tenant %S" tenant);
                status = Miss; key = ""; tenant; planned = None;
                plan_ms = 0.0; exec_ms = 0.0 },
              None )
        | `Expired tn ->
            ( { outcome = Expired "at admission"; status = Miss; key = "";
                tenant = tn.Tenancy.id; planned = None; plan_ms = 0.0;
                exec_ms = 0.0 },
              Some tn )
        | `Denied (tn, key, message, status, plan_ms) ->
            ( { outcome = Rejected message; status; key;
                tenant = tn.Tenancy.id; planned = None; plan_ms;
                exec_ms = 0.0 },
              Some tn )
        | `Late (tn, key, r, status, plan_ms) ->
            ( { outcome = Expired "between plan and exec"; status; key;
                tenant = tn.Tenancy.id; planned = Some r; plan_ms;
                exec_ms = 0.0 },
              Some tn )
        | `Run (tn, key, r, status, plan_ms, _) ->
            let outcome, exec_ms = List.assoc key executed in
            ( { outcome; status; key; tenant = tn.Tenancy.id;
                planned = Some r; plan_ms; exec_ms },
              Some tn )
        | `Alias (tn, key, r, status, plan_ms) ->
            (* aliased onto the representative execution of the same
               key: same immutable table (or the same execution
               failure), no second execution *)
            t.shared_execs <- t.shared_execs + 1;
            Obs.incr "serve.exec.shared";
            let outcome, _ = List.assoc key executed in
            ( { outcome; status; key; tenant = tn.Tenancy.id;
                planned = Some r; plan_ms; exec_ms = 0.0 },
              Some tn ))
      classified
  in
  (* accounting (coordinator only, deterministic) *)
  let after = Lru.stats t.cache in
  Obs.incr ~by:(after.Lru.hits - before.Lru.hits)
    "serve.cache.hits";
  Obs.incr ~by:(after.Lru.misses - before.Lru.misses)
    "serve.cache.misses";
  Obs.incr ~by:(after.Lru.evictions - before.Lru.evictions)
    "serve.cache.evictions";
  List.iter
    (fun ((r : response), (tn : Tenancy.t option)) ->
      t.queries <- t.queries + 1;
      Obs.incr "serve.queries";
      (match tn with
      | Some tn -> tn.Tenancy.queries <- tn.Tenancy.queries + 1
      | None -> ());
      (match r.outcome with
      | Rejected _ ->
          t.rejections <- t.rejections + 1;
          (match tn with
          | Some tn -> tn.Tenancy.rejections <- tn.Tenancy.rejections + 1
          | None -> ());
          Obs.incr "serve.rejections"
      | Expired _ ->
          t.expired <- t.expired + 1;
          (match tn with
          | Some tn -> tn.Tenancy.expired <- tn.Tenancy.expired + 1
          | None -> ());
          Obs.incr "serve.expired"
      | Table _ -> ());
      t.plan_ms_total <- t.plan_ms_total +. r.plan_ms;
      t.exec_ms_total <- t.exec_ms_total +. r.exec_ms;
      Obs.record "serve.plan_ms" r.plan_ms;
      Obs.record "serve.exec_ms" r.exec_ms;
      Obs.record "serve.query_ms" (r.plan_ms +. r.exec_ms))
    responses;
  List.map fst responses

let rec admit t = function
  | [] -> []
  | requests ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | q :: rest -> take (n - 1) (q :: acc) rest
      in
      let round, rest = take t.max_batch [] requests in
      let served = serve_round t round in
      served @ admit t rest

let submit_batch_requests t requests = admit t requests
let submit_batch t queries = admit t (List.map (fun q -> request q) queries)

let submit_request t req =
  match serve_round t [ req ] with
  | [ r ] -> r
  | _ -> assert false

let submit ?tenant t query = submit_request t (request ?tenant query)
let submit_sql ?tenant t sql = submit ?tenant t (parse ?tenant t sql)

type stats = {
  queries : int;
  rejections : int;
  expired : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invalidated : int;
  reverified : int;
  retained : int;
  entries : int;
  capacity : int;
  subplan_hits : int;
  subplan_stores : int;
  subplan_invalidated : int;
  subplan_entries : int;
  shared_execs : int;
  tenants : int;
  cross_tenant_hits : int;
  plan_ms : float;
  exec_ms : float;
}

let stats t =
  let c = Lru.stats t.cache in
  { queries = t.queries; rejections = t.rejections; expired = t.expired;
    hits = c.Lru.hits;
    misses = c.Lru.misses; insertions = c.Lru.insertions;
    evictions = c.Lru.evictions; invalidated = t.invalidated;
    reverified = t.reverified; retained = t.retained;
    entries = Lru.length t.cache;
    capacity = Lru.capacity t.cache;
    subplan_hits = t.subplan_hits; subplan_stores = t.subplan_stores;
    subplan_invalidated = t.subplan_invalidated;
    subplan_entries = Lru.length t.subcache;
    shared_execs = t.shared_execs; tenants = Tenancy.count t.tenants;
    cross_tenant_hits = t.cross_tenant_hits;
    plan_ms = t.plan_ms_total; exec_ms = t.exec_ms_total }

let hit_rate s =
  let looked = s.hits + s.misses in
  if looked = 0 then 0.0 else float_of_int s.hits /. float_of_int looked

let cache_keys t = Lru.keys t.cache
let subcache_keys t = Lru.keys t.subcache
let dag_stats t = Planner.Dag.stats t.dag

let render_stats s =
  Printf.sprintf
    "%d queries (%d rejected, %d expired): %d hits, %d misses (%.1f%% hit \
     rate), %d/%d entries, %d evictions; %d invalidated, %d reverified, \
     %d retained; subplans %d hits / %d stores (%d entries, %d \
     invalidated), %d shared execs; %d tenants, %d cross-tenant hits; \
     plan %.2f ms, exec %.2f ms"
    s.queries s.rejections s.expired s.hits s.misses
    (100.0 *. hit_rate s)
    s.entries s.capacity s.evictions s.invalidated s.reverified s.retained
    s.subplan_hits s.subplan_stores s.subplan_entries s.subplan_invalidated
    s.shared_execs s.tenants s.cross_tenant_hits s.plan_ms s.exec_ms
