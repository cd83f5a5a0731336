open Relalg

type event = {
  node_id : int;
  kind : [ `Transfer of Authz.Subject.t | `Consistency ];
  detail : string;
}

type report = { events : event list; violations : event list }

exception Violation of event

let check_consistency (profile : Authz.Profile.t) table =
  (* one scan of the attribute's column; typed columns hold neither
     Null nor ciphertext, and a sealed column's live cells are all
     ciphertext (read without producing their bytes) *)
  let column_kind a =
    let c = Table.column table a in
    let n = Column.length c in
    match c with
    | Column.Ints _ | Column.Floats _ | Column.Bools _ | Column.Strs _
    | Column.Dates _ ->
        if n = 0 then `Unknown else `Plain
    | Column.Sealed _ ->
        if Seq.exists (fun i -> not (Column.is_null c i)) (Seq.init n Fun.id)
        then `Encrypted
        else `Unknown
    | Column.Values vs -> (
        let kind = ref `Unknown in
        Array.iter
          (fun v ->
            if not (Value.is_null v) then
              let k = if Value.is_encrypted v then `Encrypted else `Plain in
              kind :=
                match !kind with
                | `Unknown -> k
                | seen when seen = k -> seen
                | _ -> `Mixed)
          vs;
        !kind)
  in
  let bad =
    List.filter_map
      (fun a ->
        let expected_enc = Attr.Set.mem a profile.Authz.Profile.ve in
        match column_kind a with
        | `Unknown -> None
        | `Mixed -> Some (Attr.name a ^ " mixed plaintext/ciphertext")
        | `Encrypted when not expected_enc ->
            Some (Attr.name a ^ " encrypted but profiled plaintext")
        | `Plain when expected_enc ->
            Some (Attr.name a ^ " plaintext but profiled encrypted")
        | _ -> None)
      (Table.attrs table)
  in
  match bad with [] -> None | msgs -> Some (String.concat "; " msgs)

let run ?(enforce = true) ~policy ctx (ext : Authz.Extend.t) =
  let events = ref [] and violations = ref [] in
  let emit ~bad ev =
    Obs.incr "monitor.checks";
    if bad then Obs.incr "monitor.violations";
    events := ev :: !events;
    if bad then
      if enforce then raise (Violation ev) else violations := ev :: !violations
  in
  let executor n = Authz.Imap.find_opt (Plan.id n) ext.Authz.Extend.assignment in
  let profile_of n = Hashtbl.find_opt ext.Authz.Extend.profiles (Plan.id n) in
  let parent_of =
    (* child id -> parent node *)
    let tbl = Hashtbl.create 32 in
    Plan.iter
      (fun n -> List.iter (fun c -> Hashtbl.replace tbl (Plan.id c) n) (Plan.children n))
      ext.Authz.Extend.plan;
    fun n -> Hashtbl.find_opt tbl (Plan.id n)
  in
  let hook node table =
    (match profile_of node with
    | Some p -> (
        match check_consistency p table with
        | Some detail ->
            emit ~bad:true { node_id = Plan.id node; kind = `Consistency; detail }
        | None -> ())
    | None -> ());
    match parent_of node with
    | None -> ()
    | Some parent -> (
        match (executor node, executor parent, profile_of node) with
        | Some s_from, Some s_to, Some p when not (Authz.Subject.equal s_from s_to)
          ->
            let view = Authz.Authorization.view policy s_to in
            let ok = Authz.Authorized.is_authorized view p in
            let detail =
              Printf.sprintf "%s -> %s: %s"
                (Authz.Subject.name s_from)
                (Authz.Subject.name s_to)
                (if ok then "authorized"
                 else
                   match Authz.Authorized.check view p with
                   | Error v ->
                       Format.asprintf "%a" Authz.Authorized.pp_violation v
                   | Ok () -> "authorized")
            in
            emit ~bad:(not ok)
              { node_id = Plan.id node; kind = `Transfer s_to; detail }
        | _ -> ())
  in
  let table =
    Obs.with_span "engine.monitor" (fun () ->
        Exec.run_with_hook ctx ~hook ext.Authz.Extend.plan)
  in
  (table, { events = List.rev !events; violations = List.rev !violations })
