(* Socket front-end: a single-threaded select loop on the accept path,
   planning/execution on the service's Par pool. Every Service and
   cache access happens on the loop thread, so sessions are isolated
   by construction — the only thing a connection can influence is its
   own byte stream (and, through admission control, how much work the
   shared backlog accepts).

   Life of a request line:

     read (deadline starts) → admission:
       backlog full? -> "shed" | parse? -> "parse error"
       | enqueue (deadline attached)
     dispatch (<= dispatch_per_turn per loop turn):
       Service.submit_batch_requests — the service checks the deadline
       at its admission and again between plan and exec
     response formatted -> session out-queue -> nonblocking writes

   Nothing is ever silently dropped: each request line ends in exactly
   one framed response (table / rejected / shed / deadline exceeded /
   parse error) unless the connection itself dies, which is counted. *)

type addr = Tcp of int | Unix_path of string

let addr_of_string s =
  match int_of_string_opt s with
  | Some p when p >= 0 && p < 65536 -> Tcp p
  | Some p ->
      invalid_arg (Printf.sprintf "Server.addr_of_string: port %d out of range" p)
  | None ->
      if String.contains s '/' then Unix_path s
      else
        invalid_arg
          (Printf.sprintf
             "Server.addr_of_string: %S is neither a port nor a path (a \
              socket path must contain '/')"
             s)

let addr_to_string = function
  | Tcp p -> string_of_int p
  | Unix_path p -> p

type config = {
  backlog : int;
  deadline_ms : int option;
}

let default_config = { backlog = 64; deadline_ms = None }

(* requests handed to the service per loop turn: keeps the accept path
   responsive under a deep backlog *)
let dispatch_per_turn = 16

let max_sessions = 64

(* per-session pending output (bytes) past which the loop stops reading
   that session *)
let outq_highwater = 1 lsl 20

(* shutdown bound on flushing already-computed responses *)
let drain_grace_s = 5.0

type summary = {
  sum_sid : int;
  sum_tenant : string;
  sum_requests : int;
  sum_responses : int;
}

type stats = {
  sessions : int;
  sessions_refused : int;
  requests : int;
  accepted : int;
  tables : int;
  rejected : int;
  shed : int;
  expired : int;
  parse_errors : int;
  disconnects : int;
  closed : summary list;  (* per-session final counters, sorted by sid *)
}

type session = {
  sid : int;
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes read, not yet a complete line *)
  outq : string Queue.t;  (* responses owed, FIFO *)
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable out_bytes : int;
  mutable line_no : int;
  mutable tenant : string;  (* the \tenant the session switched to *)
  mutable requests_seen : int;
  mutable responses_enqueued : int;
  mutable open_requests : int;  (* admitted, response pending *)
  mutable eof : bool;  (* inbound done: client EOF or shutdown *)
  mutable closing : bool;  (* flush out-queue, then close *)
  mutable dead : bool;  (* fd closed *)
}

(* an admitted (parsed) request in the global backlog *)
type admitted = {
  a_s : session;
  a_line : int;
  a_deadline : float option;
  a_plan : Relalg.Plan.t;
  a_tenant : string;
}

type t = {
  service : Service.t;
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : addr;
  stopping : bool Atomic.t;
  mutable sessions : session list;
  backlog : admitted Queue.t;
  mutable next_sid : int;
  mutable c_sessions : int;
  mutable c_sessions_refused : int;
  mutable c_requests : int;
  mutable c_accepted : int;
  mutable c_tables : int;
  mutable c_rejected : int;
  mutable c_shed : int;
  mutable c_expired : int;
  mutable c_parse_errors : int;
  mutable c_disconnects : int;
  mutable c_closed : summary list;  (* accumulated in close order *)
}

let create ?(config = default_config) ~service addr =
  let listen_fd, bound =
    match addr with
    | Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         with e -> Unix.close fd; raise e);
        Unix.listen fd 128;
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> Tcp p
          | _ -> Tcp port
        in
        (fd, bound)
    | Unix_path path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind fd (Unix.ADDR_UNIX path);
           Unix.listen fd 128
         with e -> Unix.close fd; raise e);
        (fd, Unix_path path)
  in
  Unix.set_nonblock listen_fd;
  { service; cfg = config; listen_fd; bound; stopping = Atomic.make false;
    sessions = []; backlog = Queue.create (); next_sid = 0;
    c_sessions = 0; c_sessions_refused = 0; c_requests = 0; c_accepted = 0;
    c_tables = 0; c_rejected = 0; c_shed = 0; c_expired = 0;
    c_parse_errors = 0; c_disconnects = 0; c_closed = [] }

let bound_addr t = t.bound
let stop t = Atomic.set t.stopping true

(* refusal messages must stay one line to keep the framing parseable *)
let one_line msg =
  String.concat " | "
    (List.filter
       (fun x -> x <> "")
       (List.map String.trim (String.split_on_char '\n' msg)))

(* --- output ----------------------------------------------------------- *)

(* Per-session final counters, recorded exactly once, at the moment a
   session's [dead] flag flips (both close paths guard on it). The
   accumulation order is whatever order sessions happened to die in —
   nondeterministic under drain — so [stats] sorts by sid before
   anything prints. *)
let record_summary t s =
  t.c_closed <-
    { sum_sid = s.sid; sum_tenant = s.tenant; sum_requests = s.requests_seen;
      sum_responses = s.responses_enqueued }
    :: t.c_closed

let force_close t s =
  if not s.dead then begin
    record_summary t s;
    s.dead <- true;
    s.eof <- true;
    s.closing <- true;
    if s.out_bytes > 0 || s.open_requests > 0 then begin
      t.c_disconnects <- t.c_disconnects + 1;
      Obs.incr "server.disconnects"
    end;
    Queue.clear s.outq;
    s.out_bytes <- 0;
    s.open_requests <- 0;
    (try Unix.close s.fd with Unix.Unix_error _ -> ())
  end

let push_out s text =
  if not s.dead then begin
    Queue.push text s.outq;
    s.out_bytes <- s.out_bytes + String.length text;
    s.responses_enqueued <- s.responses_enqueued + 1
  end

(* enqueue the one response a pending request is owed *)
let finish s text =
  push_out s text;
  if s.open_requests > 0 then s.open_requests <- s.open_requests - 1

let format_response n (r : Service.response) =
  match r.Service.outcome with
  | Service.Table tbl ->
      Printf.sprintf "-- [%d] %s: plan %.2f ms, exec %.2f ms, %d rows\n%s" n
        (match r.Service.status with
        | Service.Hit -> "hit"
        | Service.Miss -> "miss")
        r.Service.plan_ms r.Service.exec_ms
        (Engine.Table.cardinality tbl)
        (Engine.Csv.to_string tbl)
  | Service.Rejected msg ->
      Printf.sprintf "-- [%d] rejected: %s\n" n (one_line msg)
  | Service.Expired why ->
      Printf.sprintf "-- [%d] deadline exceeded: %s\n" n (one_line why)

(* --- admission -------------------------------------------------------- *)

let count_rejected t =
  t.c_rejected <- t.c_rejected + 1;
  Obs.incr "server.rejected"

let admit t s ~line ~deadline text =
  if Queue.length t.backlog >= t.cfg.backlog then begin
    t.c_shed <- t.c_shed + 1;
    Obs.incr "server.shed";
    finish s
      (Printf.sprintf "-- [%d] shed: backlog full (%d queued)\n" line
         (Queue.length t.backlog))
  end
  else
    match Service.parse ~tenant:s.tenant t.service text with
    | plan ->
        t.c_accepted <- t.c_accepted + 1;
        Obs.incr "server.accepted";
        Queue.push
          { a_s = s; a_line = line; a_deadline = deadline; a_plan = plan;
            a_tenant = s.tenant }
          t.backlog
    | exception Mpq_sql.Sql_lexer.Lex_error (msg, pos) ->
        t.c_parse_errors <- t.c_parse_errors + 1;
        Obs.incr "server.parse_errors";
        finish s
          (Printf.sprintf "-- [%d] parse error at %d: %s\n" line pos
             (one_line msg))
    | exception Mpq_sql.Sql_parser.Parse_error msg
    | exception Mpq_sql.Sql_plan.Plan_error msg ->
        t.c_parse_errors <- t.c_parse_errors + 1;
        Obs.incr "server.parse_errors";
        finish s
          (Printf.sprintf "-- [%d] parse error: %s\n" line (one_line msg))

(* directives: \stats and \tenant are the only ones a shared socket can
   honour — \tenant only retargets the session's own future requests
   (tenants are registered at startup, so a wire string can never
   create or mutate one), while the mutating directives (\policy,
   \invalidate) would let one session rewrite the environment under
   every other, exactly the cross-session interference the server
   promises away *)
let directive t s n line =
  match List.filter (fun x -> x <> "") (String.split_on_char ' ' line) with
  | [ "\\stats" ] ->
      push_out s
        (Printf.sprintf "-- [%d] stats: %s\n" n
           (one_line (Service.render_stats (Service.stats t.service))))
  | [ "\\tenant" ] ->
      push_out s (Printf.sprintf "-- [%d] tenant: %s\n" n s.tenant)
  | [ "\\tenant"; "list" ] ->
      push_out s
        (Printf.sprintf "-- [%d] tenants: %s\n" n
           (String.concat ", " (Service.tenant_ids t.service)))
  | [ "\\tenant"; "use"; id ] ->
      if List.mem id (Service.tenant_ids t.service) then begin
        s.tenant <- id;
        push_out s (Printf.sprintf "-- [%d] tenant: %s\n" n id)
      end
      else begin
        count_rejected t;
        push_out s (Printf.sprintf "-- [%d] rejected: unknown tenant %S\n" n id)
      end
  | d :: _ ->
      count_rejected t;
      push_out s
        (Printf.sprintf
           "-- [%d] rejected: directive %s is not available over a socket \
            (sessions are isolated; only \\stats and \\tenant)\n"
           n d)
  | [] -> ()

let handle_line t s raw =
  s.line_no <- s.line_no + 1;
  let n = s.line_no in
  let line = String.trim raw in
  if line = "" || line.[0] = '#' then ()
  else begin
    s.requests_seen <- s.requests_seen + 1;
    t.c_requests <- t.c_requests + 1;
    Obs.incr "server.requests";
    if line.[0] = '\\' then directive t s n line
    else begin
      s.open_requests <- s.open_requests + 1;
      (* the budget starts when the line is read *)
      let deadline =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0))
          t.cfg.deadline_ms
      in
      admit t s ~line:n ~deadline line
    end
  end

(* --- dispatch --------------------------------------------------------- *)

let dispatch t =
  if not (Queue.is_empty t.backlog) then begin
    let n = min dispatch_per_turn (Queue.length t.backlog) in
    let items = List.init n (fun _ -> Queue.pop t.backlog) in
    let reqs =
      List.map
        (fun a ->
          Service.request ?deadline:a.a_deadline ~tenant:a.a_tenant a.a_plan)
        items
    in
    match Service.submit_batch_requests t.service reqs with
    | resps ->
        List.iter2
          (fun a (r : Service.response) ->
            (match r.Service.outcome with
            | Service.Table _ ->
                t.c_tables <- t.c_tables + 1;
                Obs.incr "server.tables"
            | Service.Rejected _ -> count_rejected t
            | Service.Expired _ ->
                t.c_expired <- t.c_expired + 1;
                Obs.incr "server.deadline");
            finish a.a_s (format_response a.a_line r))
          items resps
    | exception e ->
        (* the structured-refusal contract survives even a service
           blow-up: every request of the round still gets its line *)
        List.iter
          (fun a ->
            count_rejected t;
            finish a.a_s
              (Printf.sprintf "-- [%d] rejected: internal error: %s\n"
                 a.a_line
                 (one_line (Printexc.to_string e))))
          items
  end

(* --- socket IO -------------------------------------------------------- *)

(* Hand every complete line in [inbuf] to [handle_line]. At EOF a
   non-empty remainder is the last line, sent without its newline; it
   is answered like any other. *)
let drain_lines t s =
  let data = Buffer.contents s.inbuf in
  Buffer.clear s.inbuf;
  let len = String.length data in
  let rec go start =
    match String.index_from_opt data start '\n' with
    | Some i ->
        handle_line t s (String.sub data start (i - start));
        go (i + 1)
    | None when start = len -> ()
    | None when s.eof -> handle_line t s (String.sub data start (len - start))
    | None -> Buffer.add_substring s.inbuf data start (len - start)
  in
  go 0

let read_session t s =
  let buf = Bytes.create 4096 in
  match Unix.read s.fd buf 0 (Bytes.length buf) with
  | 0 ->
      s.eof <- true;
      drain_lines t s
  | k ->
      Buffer.add_subbytes s.inbuf buf 0 k;
      drain_lines t s
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> force_close t s

let write_session t s =
  try
    while not (Queue.is_empty s.outq) do
      let head = Queue.peek s.outq in
      let want = String.length head - s.out_off in
      let k = Unix.write_substring s.fd head s.out_off want in
      s.out_bytes <- s.out_bytes - k;
      if k = want then begin
        ignore (Queue.pop s.outq);
        s.out_off <- 0
      end
      else begin
        s.out_off <- s.out_off + k;
        raise Exit
      end
    done
  with
  | Exit -> ()
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | Unix.Unix_error _ -> force_close t s

let accept_session t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      if List.length t.sessions >= max_sessions then begin
        t.c_sessions_refused <- t.c_sessions_refused + 1;
        Obs.incr "server.sessions_refused";
        let msg =
          Printf.sprintf "-- [0] shed: session limit (%d active)\n"
            (List.length t.sessions)
        in
        (try ignore (Unix.write_substring fd msg 0 (String.length msg))
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
      end
      else begin
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        t.c_sessions <- t.c_sessions + 1;
        Obs.incr "server.sessions";
        let s =
          { sid; fd; inbuf = Buffer.create 256; outq = Queue.create ();
            out_off = 0; out_bytes = 0; line_no = 0;
            tenant = Tenancy.default_id; requests_seen = 0;
            responses_enqueued = 0; open_requests = 0; eof = false;
            closing = false; dead = false }
        in
        t.sessions <- t.sessions @ [ s ]
      end
  | exception
      Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) ->
      ()

(* close sessions that owe nothing and have flushed everything *)
let sweep t =
  List.iter
    (fun s ->
      if not s.dead then begin
        if s.eof && s.open_requests = 0 then s.closing <- true;
        if s.closing && Queue.is_empty s.outq then begin
          record_summary t s;
          s.dead <- true;
          (try Unix.close s.fd with Unix.Unix_error _ -> ())
        end
      end)
    t.sessions;
  t.sessions <- List.filter (fun s -> not s.dead) t.sessions

(* --- event loop ------------------------------------------------------- *)

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listener_open = ref true in
  let drain_deadline = ref infinity in
  let close_listener () =
    if !listener_open then begin
      listener_open := false;
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      match t.bound with
      | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | Tcp _ -> ()
    end
  in
  let rec loop () =
    if Atomic.get t.stopping && !listener_open then begin
      (* graceful shutdown: stop accepting and reading, then drain
         everything already admitted and flush within the
         grace budget *)
      close_listener ();
      drain_deadline := Unix.gettimeofday () +. drain_grace_s;
      List.iter (fun s -> s.eof <- true) t.sessions
    end;
    dispatch t;
    sweep t;
    let stopping = Atomic.get t.stopping in
    let served =
      stopping
      && Queue.is_empty t.backlog
      && List.for_all (fun s -> s.open_requests = 0) t.sessions
    in
    if served && List.for_all (fun s -> Queue.is_empty s.outq) t.sessions
    then
      (* everything answered and flushed: done *)
      List.iter (force_close t) t.sessions
    else if served && Unix.gettimeofday () > !drain_deadline then
      (* grace exhausted: the remaining bytes belong to clients that
         stopped reading; cut them (counted as disconnects) *)
      List.iter (force_close t) t.sessions
    else begin
      let reads =
        (if !listener_open then [ t.listen_fd ] else [])
        @ List.filter_map
            (fun s ->
              if
                (not s.dead) && (not s.eof) && (not s.closing)
                && s.out_bytes < outq_highwater
              then Some s.fd
              else None)
            t.sessions
      in
      let writes =
        List.filter_map
          (fun s ->
            if (not s.dead) && not (Queue.is_empty s.outq) then Some s.fd
            else None)
          t.sessions
      in
      let timeout =
        if not (Queue.is_empty t.backlog) then 0.0
        else if stopping then 0.02
        else 0.25
      in
      (match Unix.select reads writes [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error (EBADF, _, _) ->
          (* an fd died between sweep and select; the per-session IO
             error paths will reap it next turn *)
          ()
      | r, w, _ ->
          if List.mem t.listen_fd r then accept_session t;
          List.iter
            (fun s -> if (not s.dead) && List.mem s.fd w then write_session t s)
            t.sessions;
          List.iter
            (fun s -> if (not s.dead) && List.mem s.fd r then read_session t s)
            t.sessions);
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (force_close t) t.sessions;
      t.sessions <- [];
      close_listener ())
    loop

(* --- stats ------------------------------------------------------------ *)

let stats t =
  { sessions = t.c_sessions; sessions_refused = t.c_sessions_refused;
    requests = t.c_requests; accepted = t.c_accepted; tables = t.c_tables;
    rejected = t.c_rejected; shed = t.c_shed; expired = t.c_expired;
    parse_errors = t.c_parse_errors; disconnects = t.c_disconnects;
    closed =
      (* close order depends on drain timing; sid order is the
         deterministic presentation the CI grep relies on *)
      List.sort (fun a b -> compare a.sum_sid b.sum_sid) t.c_closed }

let render_stats (s : stats) =
  let head =
    Printf.sprintf
      "%d sessions (%d refused), %d requests: %d accepted, %d tables, %d \
       rejected, %d shed, %d expired, %d parse errors; %d disconnects"
      s.sessions s.sessions_refused s.requests s.accepted s.tables s.rejected
      s.shed s.expired s.parse_errors s.disconnects
  in
  match s.closed with
  | [] -> head
  | closed ->
      head ^ "; per session: "
      ^ String.concat ", "
          (List.map
             (fun c ->
               Printf.sprintf "#%d[%s] %d req / %d resp" c.sum_sid
                 c.sum_tenant c.sum_requests c.sum_responses)
             closed)
