open Relalg

type event =
  | Request_sent of { name : string; to_ : Authz.Subject.t; keys : string list }
  | Request_opened of { name : string; by : Authz.Subject.t }
  | Data_transfer of {
      from_ : Authz.Subject.t;
      to_ : Authz.Subject.t;
      node_id : int;
      rows : int;
      bytes : int;
    }
  | Release_check of {
      by : Authz.Subject.t;
      for_ : Authz.Subject.t;
      node_id : int;
    }
  | Key_check of { by : Authz.Subject.t; cluster : string }
  | Fault_injected of {
      what : string;
      subject : string;
      kind : string;
      step : int;
    }
  | Retry of { what : string; attempt : int; backoff_ms : int }
  | Timeout of { what : string; subject : string; waited_ms : int }
  | Failover_replanned of {
      dead : Authz.Subject.t;
      excluded : Authz.Subject.t list;
    }
  | Degraded_abort of { reason : string }

exception Distributed_violation of string

type retry_policy = {
  max_retries : int;
  base_backoff_ms : int;
  timeout_ms : int;
}

let default_retry = { max_retries = 3; base_backoff_ms = 50; timeout_ms = 1000 }

type degradation = { reason : string; dead : Authz.Subject.t list }
type status = Completed of Engine.Table.t | Degraded of degradation

type outcome = {
  status : status;
  trace : event list;
  clock_ms : int;
  replans : int;
}

let result o =
  match o.status with
  | Completed t -> t
  | Degraded d -> raise (Distributed_violation ("degraded run: " ^ d.reason))

type replanner =
  exclude:Authz.Subject.Set.t ->
  (Authz.Extend.t * Authz.Plan_keys.cluster list) option

let optimizer_replanner ~policy ~subjects ?config ?deliver_to plan ~exclude =
  let remaining =
    List.filter (fun s -> not (Authz.Subject.Set.mem s exclude)) subjects
  in
  match
    Planner.Optimizer.plan ~policy ~subjects:remaining ?config ?deliver_to plan
  with
  | r -> Some (r.Planner.Optimizer.extended, r.Planner.Optimizer.clusters)
  | exception
      ( Planner.Optimizer.No_candidate _
      | Planner.Optimizer.User_not_authorized _ ) ->
      None

(* Internal control flow: a subject exhausted its retries. Never escapes
   [execute]. *)
exception Dead_subject of Authz.Subject.t * string

(* Every refusal is fatal: a node the extension does not describe is
   never released. *)
let refuse fmt = Format.kasprintf (fun m -> raise (Distributed_violation m)) fmt

let executor_of (extended : Authz.Extend.t) n =
  match Authz.Imap.find_opt (Plan.id n) extended.Authz.Extend.assignment with
  | Some s -> s
  | None -> refuse "node %d has no executor" (Plan.id n)

(* [None] when the table's columns match the profile's visible
   plaintext/encrypted split. One scan per column: typed columns hold
   neither Null nor ciphertext, and a sealed column's live cells are all
   ciphertext (read without producing their bytes). *)
let mismatch (profile : Authz.Profile.t) table =
  let column_kind a =
    let c = Engine.Table.column table a in
    let n = Column.length c in
    match c with
    | Column.Ints _ | Column.Floats _ | Column.Bools _ | Column.Strs _
    | Column.Dates _ ->
        if n = 0 then `Unknown else `Plain
    | Column.Sealed _ ->
        if Seq.exists (fun i -> not (Column.is_null c i)) (Seq.init n Fun.id)
        then `Encrypted
        else `Unknown
    | Column.Values vs ->
        Array.fold_left
          (fun kind v ->
            if Value.is_null v then kind
            else
              let k = if Value.is_encrypted v then `Encrypted else `Plain in
              if kind = `Unknown || kind = k then k else `Mixed)
          `Unknown vs
  in
  let bad a =
    match (column_kind a, Attr.Set.mem a profile.Authz.Profile.ve) with
    | `Mixed, _ -> Some (Attr.name a ^ " mixed plaintext/ciphertext")
    | `Encrypted, false ->
        Some (Attr.name a ^ " encrypted but profiled plaintext")
    | `Plain, true -> Some (Attr.name a ^ " plaintext but profiled encrypted")
    | _ -> None
  in
  match List.filter_map bad (Engine.Table.attrs table) with
  | [] -> None
  | msgs -> Some (String.concat "; " msgs)

let check_node ~policy (extended : Authz.Extend.t) =
  let parent_of =
    let tbl = Hashtbl.create 64 in
    Plan.iter
      (fun n ->
        List.iter (fun c -> Hashtbl.replace tbl (Plan.id c) n) (Plan.children n))
      extended.Authz.Extend.plan;
    fun n -> Hashtbl.find_opt tbl (Plan.id n)
  in
  fun node table ->
    let id = Plan.id node in
    let s_from = executor_of extended node in
    let profile =
      match Hashtbl.find_opt extended.Authz.Extend.profiles id with
      | Some p -> p
      | None -> refuse "no profile recorded for node %d" id
    in
    let released =
      match parent_of node with
      | None -> None
      | Some parent ->
          let s_to = executor_of extended parent in
          if Authz.Subject.equal s_from s_to then None
          else begin
            Obs.incr "distsim.release_checks";
            match
              Authz.Authorized.check (Authz.Authorization.view policy s_to)
                profile
            with
            | Ok () -> Some (s_from, s_to)
            | Error v ->
                refuse "%s refuses to release node %d to %s: %a"
                  (Authz.Subject.name s_from) id (Authz.Subject.name s_to)
                  Authz.Authorized.pp_violation v
          end
    in
    (match mismatch profile table with
    | Some detail -> refuse "node %d does not match its profile: %s" id detail
    | None -> ());
    released

(* Flip one bit in the middle of a ciphertext: injected in-transit
   corruption, to be caught by the envelope MAC. *)
let tamper s =
  if String.length s = 0 then s
  else
    String.mapi
      (fun i c ->
        if i = String.length s / 2 then Char.chr (Char.code c lxor 1) else c)
      s

let execute ~policy ~pki ~keyring ~user ~tables ?(udfs = [])
    ?(config = Authz.Opreq.default) ?faults
    ?(retry = default_retry) ?replan ~extended ~clusters () =
  let faults = match faults with Some f -> f | None -> Faults.none () in
  let trace = ref [] in
  let emit e = trace := e :: !trace in
  let dead = ref Authz.Subject.Set.empty in
  let outcome status =
    { status;
      trace = List.rev !trace;
      clock_ms = Faults.clock_ms faults;
      replans = 0 }
  in
  (* --- one full pass over a given extension --------------------------- *)
  let run_once (extended : Authz.Extend.t) clusters =
    let requests = Authz.Dispatch.requests extended clusters in
    (* 0. pre-dispatch gate: nothing leaves the user's machine before the
       static verifier has re-derived every invariant over the plan, the
       clusters and the requests about to be sealed. Runs again on every
       failover re-planned extension. *)
    let diags =
      Obs.with_span "distsim.verify" (fun () ->
          Verify.Verifier.run
            { Verify.Verifier.policy; config; extended; clusters; requests })
    in
    if Verify.Diag.has_errors diags then
      refuse "pre-dispatch verification failed:\n%s"
        (Verify.Diag.render (Verify.Diag.errors diags));
    (* resolve a blamed subject name back to the subject *)
    let subject_named =
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace tbl (Authz.Subject.name user) user;
      Authz.Imap.iter
        (fun _ s -> Hashtbl.replace tbl (Authz.Subject.name s) s)
        extended.Authz.Extend.assignment;
      fun name ->
        match Hashtbl.find_opt tbl name with
        | Some s -> s
        | None -> Authz.Subject.provider name
    in
    (* supervised interaction: bounded retries, exponential backoff with
       deterministic jitter, per-attempt timeout. Transport faults are
       retryable; [op] raising anything other than [Pki.Bad_envelope]
       (in particular [Distributed_violation]) aborts immediately. *)
    let attempt ~what ~participants (op : corrupted:bool -> unit) =
      let last_participant =
        List.nth participants (List.length participants - 1)
      in
      let rec go attempt_no =
        let fate =
          (* one attempt: roll the fault plan, then run the operation;
             [Pki.Bad_envelope] is the detectable-transport-damage
             signal; any other exception (notably
             [Distributed_violation]) aborts without retry *)
          Obs.with_span "distsim.attempt" @@ fun () ->
          let d = Faults.interact faults participants in
          match d.Faults.verdict with
          | Faults.No_response by -> `Timeout by
          | Faults.Dropped by ->
              Faults.advance faults d.Faults.latency_ms;
              `Fault ("transient", by)
          | Faults.Corrupted by ->
              Faults.advance faults d.Faults.latency_ms;
              (* deliver the corrupted payload: detection (envelope MAC /
                 transfer checksum) is part of what we simulate *)
              (match op ~corrupted:true with
              | () -> ()
              | exception Pki.Bad_envelope _ -> ());
              `Fault ("corrupt", by)
          | Faults.Delivered when d.Faults.latency_ms > retry.timeout_ms ->
              `Timeout (Option.value d.Faults.slow_by ~default:last_participant)
          | Faults.Delivered -> (
              Faults.advance faults d.Faults.latency_ms;
              match op ~corrupted:false with
              | () -> `Ok
              | exception Pki.Bad_envelope _ ->
                  `Fault ("envelope", last_participant))
        in
        let retry_or_die by =
          if attempt_no > retry.max_retries then
            raise (Dead_subject (subject_named by, what))
          else begin
            let backoff =
              (retry.base_backoff_ms * (1 lsl (attempt_no - 1)))
              + Faults.jitter faults retry.base_backoff_ms
            in
            Faults.advance faults backoff;
            Obs.incr "distsim.retries";
            emit (Retry { what; attempt = attempt_no; backoff_ms = backoff });
            go (attempt_no + 1)
          end
        in
        match fate with
        | `Ok -> ()
        | `Timeout by ->
            Faults.advance faults retry.timeout_ms;
            Obs.incr "distsim.timeouts";
            emit (Timeout { what; subject = by; waited_ms = retry.timeout_ms });
            retry_or_die by
        | `Fault (kind, by) ->
            emit
              (Fault_injected
                 { what; subject = by; kind; step = Faults.step faults });
            Obs.incr "distsim.faults_injected";
            retry_or_die by
      in
      go 1
    in
    (* 1. dispatch: the user seals a request per fragment; the executor
       opens and verifies it (the envelope discipline of Fig. 8). *)
    Obs.incr ~by:(List.length requests) "distsim.requests";
    Obs.with_span "distsim.dispatch" (fun () ->
        List.iter
          (fun (r : Authz.Dispatch.request) ->
            let payload =
              Printf.sprintf "%s|%s|%s" r.Authz.Dispatch.name
                r.Authz.Dispatch.expression
                (String.concat "," r.Authz.Dispatch.key_clusters)
            in
            let recipient = Authz.Subject.name r.Authz.Dispatch.subject in
            attempt
              ~what:("dispatch " ^ r.Authz.Dispatch.name)
              ~participants:[ Authz.Subject.name user; recipient ]
              (fun ~corrupted ->
                let sealed =
                  Pki.seal pki ~sender:(Authz.Subject.name user) ~recipient
                    payload
                in
                let sealed =
                  if corrupted then
                    { sealed with
                      Pki.ciphertext = tamper sealed.Pki.ciphertext }
                  else sealed
                in
                emit
                  (Request_sent
                     { name = r.Authz.Dispatch.name;
                       to_ = r.Authz.Dispatch.subject;
                       keys = r.Authz.Dispatch.key_clusters });
                let opened = Pki.open_ pki ~recipient sealed in
                if not (String.equal opened payload) then
                  raise (Pki.Bad_envelope "request payload corrupted in transit");
                emit
                  (Request_opened
                     { name = r.Authz.Dispatch.name;
                       by = r.Authz.Dispatch.subject })))
          requests);
    (* 2. key distribution check: each executor holds exactly the clusters
       whose enc/dec operations it performs. A failed key check is an
       authorization violation — fatal, never retried. *)
    Obs.with_span "distsim.key_checks" (fun () ->
        Plan.iter
          (fun n ->
            match Plan.node n with
            | Plan.Encrypt (attrs, _) | Plan.Decrypt (attrs, _) ->
                let s = executor_of extended n in
                Attr.Set.iter
                  (fun a ->
                    match Authz.Plan_keys.cluster_of_attr clusters a with
                    | Some c ->
                        if not (Authz.Subject.Set.mem s c.Authz.Plan_keys.holders)
                        then
                          refuse "%s lacks key k%s for node %d"
                            (Authz.Subject.name s) c.Authz.Plan_keys.id
                            (Plan.id n);
                        emit (Key_check { by = s; cluster = c.Authz.Plan_keys.id })
                    | None ->
                        refuse "attribute %s of node %d has no key cluster"
                          (Attr.name a) (Plan.id n))
                  attrs
            | _ -> ())
          extended.Authz.Extend.plan);
    (* 3. evaluation under [check_node] on every node's table (each sender
       re-checks Def. 4.1 for the receiver before handing data over). The
       check is local and fatal when denied; only the transfer itself is
       retried. *)
    let crypto = Engine.Enc_exec.make keyring clusters in
    let ctx = Engine.Exec.context ~udfs ~crypto tables in
    let check = check_node ~policy extended in
    let hook node table =
      match check node table with
      | None -> ()
      | Some (s_from, s_to) ->
          emit
            (Release_check { by = s_from; for_ = s_to; node_id = Plan.id node });
          let what =
            Printf.sprintf "transfer n%d %s->%s" (Plan.id node)
              (Authz.Subject.name s_from) (Authz.Subject.name s_to)
          in
          attempt ~what
            ~participants:[ Authz.Subject.name s_from; Authz.Subject.name s_to ]
            (fun ~corrupted ->
              (* a corrupted transfer is detected by the receiver's
                 checksum and discarded; nothing is delivered *)
              if not corrupted then begin
                let bytes = Engine.Table.byte_size table in
                Obs.incr "distsim.transfers";
                Obs.record "distsim.transfer_bytes" (float_of_int bytes);
                emit
                  (Data_transfer
                     { from_ = s_from;
                       to_ = s_to;
                       node_id = Plan.id node;
                       rows = Engine.Table.cardinality table;
                       bytes })
              end)
    in
    Obs.with_span "distsim.exec" (fun () ->
        Engine.Exec.run_with_hook ctx ~hook extended.Authz.Extend.plan)
  in
  (* --- supervision: failover re-planning around run_once --------------- *)
  let rec supervise extended clusters replans =
    match run_once extended clusters with
    | table -> { (outcome (Completed table)) with replans }
    | exception Dead_subject (s, what) ->
        let degrade reason =
          emit (Degraded_abort { reason });
          Obs.incr "distsim.degraded";
          { (outcome
               (Degraded { reason; dead = Authz.Subject.Set.elements !dead }))
            with replans }
        in
        if Authz.Subject.Set.mem s !dead then
          (* the replanned assignment interacted with a subject we already
             declared dead (it may own base data no one else holds) *)
          degrade
            (Printf.sprintf "%s unresponsive again after re-planning (%s)"
               (Authz.Subject.name s) what)
        else begin
          dead := Authz.Subject.Set.add s !dead;
          match replan with
          | None ->
              degrade
                (Printf.sprintf
                   "%s unresponsive after %d retries (%s); no re-planner \
                    configured"
                   (Authz.Subject.name s) retry.max_retries what)
          | Some rp -> (
              Obs.incr "distsim.failovers";
              match
                Obs.with_span "distsim.replan" (fun () -> rp ~exclude:!dead)
              with
              | None ->
                  degrade
                    (Printf.sprintf
                       "%s unresponsive (%s); no authorized alternative \
                        assignment exists"
                       (Authz.Subject.name s) what)
              | Some (extended', clusters') ->
                  if
                    Authz.Imap.exists
                      (fun _ sub -> Authz.Subject.Set.mem sub !dead)
                      extended'.Authz.Extend.assignment
                  then
                    degrade
                      (Printf.sprintf
                         "re-planned assignment still requires dead \
                          subject(s) %s"
                         (String.concat ", "
                            (List.map Authz.Subject.name
                               (Authz.Subject.Set.elements !dead))))
                  else begin
                    emit
                      (Failover_replanned
                         { dead = s;
                           excluded = Authz.Subject.Set.elements !dead });
                    supervise extended' clusters' (replans + 1)
                  end)
        end
  in
  supervise extended clusters 0

let pp_event fmt = function
  | Request_sent { name; to_; keys } ->
      Format.fprintf fmt "request %s -> %s%s" name (Authz.Subject.name to_)
        (match keys with
        | [] -> ""
        | ks -> " [keys " ^ String.concat "," ks ^ "]")
  | Request_opened { name; by } ->
      Format.fprintf fmt "request %s opened by %s" name (Authz.Subject.name by)
  | Data_transfer { from_; to_; node_id; rows; bytes } ->
      Format.fprintf fmt "data n%d: %s -> %s (%d rows, %d bytes)" node_id
        (Authz.Subject.name from_) (Authz.Subject.name to_) rows bytes
  | Release_check { by; for_; node_id } ->
      Format.fprintf fmt "release check n%d by %s for %s: authorized" node_id
        (Authz.Subject.name by) (Authz.Subject.name for_)
  | Key_check { by; cluster } ->
      Format.fprintf fmt "key check k%s at %s: held" cluster
        (Authz.Subject.name by)
  | Fault_injected { what; subject; kind; step } ->
      Format.fprintf fmt "fault[%s] on %s at %s (step %d)" kind what subject
        step
  | Retry { what; attempt; backoff_ms } ->
      Format.fprintf fmt "retry %s: attempt %d failed, backing off %d ms" what
        attempt backoff_ms
  | Timeout { what; subject; waited_ms } ->
      Format.fprintf fmt "timeout on %s: no answer from %s within %d ms" what
        subject waited_ms
  | Failover_replanned { dead; excluded } ->
      Format.fprintf fmt "failover: %s declared dead, re-planned without {%s}"
        (Authz.Subject.name dead)
        (String.concat "," (List.map Authz.Subject.name excluded))
  | Degraded_abort { reason } -> Format.fprintf fmt "DEGRADED: %s" reason
