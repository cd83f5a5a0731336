(* Sockets: a single-threaded select loop on the accept path, planning
   and execution on the service's Par pool. Every Service and cache
   access happens on the loop thread, so a connection influences only its
   own byte stream (and, through admission control, how much work the
   shared backlog accepts). Per loop turn:

     accept | read -> Session.input -> query line: backlog full? ->
       "shed" | parse -> [admit]: enqueue
     dispatch <= dispatch_per_turn requests: Session.serve
     Session.output -> session out-queue -> nonblocking writes

   A channel: one operator session, read after select so that a stop
   request is seen between reads; a read's requests are all answered
   before the next read. *)

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
  closed : summary list;  (* the latest [max_sessions], sorted by sid *)
  closed_dropped : int;
}

type session = {
  sid : int;
  fd : Unix.file_descr;
  proto : Session.t;
  outq : string Queue.t;  (* replies handed over, not yet written, FIFO *)
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable out_bytes : int;
  mutable responses_enqueued : int;
  mutable eof : bool;  (* inbound done: client EOF or shutdown *)
  mutable dead : bool;  (* fd closed *)
}

type t = {
  service : Service.t;
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : addr;
  stopping : bool Atomic.t;
  mutable sessions : session list;
  backlog : Session.pending Queue.t;
  tally : Session.tally;
  mutable next_sid : int;
  mutable c_sessions : int;
  mutable c_sessions_refused : int;
  mutable c_accepted : int;
  mutable c_shed : int;
  mutable c_disconnects : int;
  mutable c_closed : summary list;
      (* the [max_sessions] highest-sid summaries, sorted by sid *)
  mutable c_closed_dropped : int;
}

let create ?(config = default_config) ~service addr =
  let sa =
    match addr with
    | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    | Unix_path path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Unix.ADDR_UNIX path
  in
  let listen_fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd sa;
     Unix.listen listen_fd 128
   with e -> Unix.close listen_fd; raise e);
  let bound =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> Tcp p
    | _ -> addr
  in
  Unix.set_nonblock listen_fd;
  { service; cfg = config; listen_fd; bound; stopping = Atomic.make false;
    sessions = []; backlog = Queue.create (); tally = Session.tally ();
    next_sid = 0; c_sessions = 0; c_sessions_refused = 0; c_accepted = 0;
    c_shed = 0; c_disconnects = 0; c_closed = []; c_closed_dropped = 0 }

let bound_addr t = t.bound
let stop t = Atomic.set t.stopping true

(* --- output ----------------------------------------------------------- *)

(* the one place a session dies: its final counters are recorded once.
   Only the [max_sessions] latest sessions' summaries are kept, latest
   by id so that which ones does not depend on close order. *)
let close_session t s =
  if not s.dead then begin
    let summary =
      { sum_sid = s.sid; sum_tenant = Session.tenant s.proto;
        sum_requests = Session.requests s.proto;
        sum_responses = s.responses_enqueued }
    in
    let closed =
      List.merge (fun a b -> compare a.sum_sid b.sum_sid) [ summary ] t.c_closed
    in
    t.c_closed <-
      (if List.length closed <= max_sessions then closed
       else begin
         t.c_closed_dropped <- t.c_closed_dropped + 1;
         List.tl closed
       end);
    s.dead <- true;
    try Unix.close s.fd with Unix.Unix_error _ -> ()
  end

(* close now; a session that vanished owing output is a disconnect *)
let force_close t s =
  if (not s.dead) && (s.out_bytes > 0 || not (Session.idle s.proto)) then begin
    t.c_disconnects <- t.c_disconnects + 1;
    Obs.incr "server.disconnects"
  end;
  close_session t s

let push_out s text =
  Queue.push text s.outq;
  s.out_bytes <- s.out_bytes + String.length text;
  s.responses_enqueued <- s.responses_enqueued + 1

(* admission control: a full backlog refuses a query line at once *)
let shed t () =
  let n = Queue.length t.backlog in
  if n < t.cfg.backlog then None
  else begin
    t.c_shed <- t.c_shed + 1;
    Obs.incr "server.shed";
    Some (Printf.sprintf "shed: backlog full (%d queued)" n)
  end

let admit t p =
  t.c_accepted <- t.c_accepted + 1;
  Obs.incr "server.accepted";
  Queue.push p t.backlog

let dispatch t =
  if not (Queue.is_empty t.backlog) then
    let n = min dispatch_per_turn (Queue.length t.backlog) in
    Session.serve t.service (List.init n (fun _ -> Queue.pop t.backlog))

(* --- socket IO -------------------------------------------------------- *)

let read_session t s =
  let buf = Bytes.create 4096 in
  match Unix.read s.fd buf 0 (Bytes.length buf) with
  | k ->
      if k = 0 then s.eof <- true;
      Session.input s.proto buf k
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
        let proto =
          Session.create ~operator:false ~deadline_ms:t.cfg.deadline_ms
            ~tally:t.tally ~admit:(shed t) ~submit:(admit t) t.service
        in
        let s =
          { sid; fd; proto; outq = Queue.create (); out_off = 0; out_bytes = 0;
            responses_enqueued = 0; eof = false; dead = false }
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
      if s.eof && Session.idle s.proto && Queue.is_empty s.outq then
        close_session t s)
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
    List.iter (fun s -> Session.output s.proto (push_out s)) t.sessions;
    sweep t;
    let stopping = Atomic.get t.stopping in
    let served =
      stopping
      && Queue.is_empty t.backlog
      && List.for_all (fun s -> Session.idle s.proto) t.sessions
    in
    if
      served
      && (List.for_all (fun s -> Queue.is_empty s.outq) t.sessions
         || Unix.gettimeofday () > !drain_deadline)
    then
      (* everything answered and flushed, or the grace is exhausted: the
         remaining bytes belong to clients that stopped reading; cut them
         (counted as disconnects) *)
      List.iter (force_close t) t.sessions
    else begin
      let reads =
        (if !listener_open then [ t.listen_fd ] else [])
        @ List.filter_map
            (fun s ->
              if
                (not s.dead) && (not s.eof)
                && s.out_bytes < outq_highwater
                && not (Session.blocked s.proto)
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

(* --- channel ---------------------------------------------------------- *)

let serve_channel ~stop ~service fd oc =
  let round = ref [] in
  let s =
    Session.create ~operator:true ~deadline_ms:None ~tally:(Session.tally ())
      ~admit:(fun () -> None) ~submit:(fun p -> round := p :: !round) service
  in
  (* answering can release held lines, which admit more *)
  let rec drain () =
    match List.rev !round with
    | [] ->
        Session.output s (output_string oc);
        flush oc
    | items ->
        round := [];
        Session.serve service items;
        drain ()
  in
  let buf = Bytes.create 65536 in
  let rec loop () =
    drain ();
    if not (Atomic.get stop) then
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | k ->
              Session.input s buf k;
              if k = 0 then drain () else loop ()
          | exception Unix.Unix_error ((EINTR | EAGAIN), _, _) -> loop ())
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
  in
  loop ()

(* --- stats ------------------------------------------------------------ *)

let stats t =
  let c = t.tally in
  { sessions = t.c_sessions; sessions_refused = t.c_sessions_refused;
    requests = c.requests; accepted = t.c_accepted; tables = c.tables;
    rejected = c.rejected; shed = t.c_shed; expired = c.expired;
    parse_errors = c.parse_errors; disconnects = t.c_disconnects;
    closed = t.c_closed; closed_dropped = t.c_closed_dropped }

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
      head ^ "; per session"
      ^ (if s.closed_dropped = 0 then ""
         else Printf.sprintf " (%d earlier dropped)" s.closed_dropped)
      ^ ": "
      ^ String.concat ", "
          (List.map
             (fun c ->
               Printf.sprintf "#%d[%s] %d req / %d resp" c.sum_sid
                 c.sum_tenant c.sum_requests c.sum_responses)
             closed)
