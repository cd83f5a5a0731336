(** The two transports of the line protocol ({!Session}): sockets and a
    channel. A transport moves bytes and decides when to dispatch; the
    one difference it fixes is that the channel's single session is the
    operator's and honours [\policy FILE] and [\invalidate], while a
    socket session, one of many, refuses them.

    {b Sockets} ({!create}, {!run}): one {!Service}, many concurrent
    sessions. The accept path is a single-threaded [select] loop;
    planning and execution stay on the service's {!Par} pool. Every
    cache access happens on the loop thread, so a malformed, slow,
    stalled or vanished connection can corrupt neither another
    session's replies nor the shared cache. Overload is engineered in:

    - {b admission control} — a request arriving when the global
      backlog is full is refused at once, [-- \[N\] shed: backlog full …].
    - {b deadlines} — a request's budget starts when its line is taken;
      the service checks it at admission and between the plan and exec
      phases, answering [-- \[N\] deadline exceeded: …].
    - {b backpressure} — a session is not read while its unread output
      passes a high-water mark or while its directive waits on its
      earlier requests; nothing owed is ever dropped.
    - {b graceful shutdown} — {!stop} closes the listener, answers every
      request already read, flushes within a grace budget, and {!run}
      returns.

    The contract is exercised from the client side of real sockets —
    late, garbled, stalled and hung-up sessions — by
    [test/test_server.ml]. *)

type addr = Tcp of int | Unix_path of string
    (** [Tcp port] listens on the IPv4 loopback; [Tcp 0] picks a free
        port (see {!bound_addr}). [Unix_path p] listens on a
        filesystem socket (any stale file at [p] is replaced). *)

val addr_of_string : string -> addr
(** ["7401"] → [Tcp 7401]; anything containing ['/'] → [Unix_path].
    Raises [Invalid_argument] otherwise. *)

val addr_to_string : addr -> string

type config = {
  backlog : int;  (** global admitted-request bound (default 64) *)
  deadline_ms : int option;
      (** per-request budget, counted from the moment the request line
          is taken (default none) *)
}
(** The fixed limits are not configurable: at most 16 requests are
    handed to the service per loop iteration, at most 64 sessions are
    open at once (the next connection reads
    [-- \[0\] shed: session limit (64 active)] and is closed), a
    session whose pending output passes 1 MiB is not read until it
    drains, and shutdown flushes for at most 5 s. *)

val default_config : config

type summary = {
  sum_sid : int;  (** session id, in accept order *)
  sum_tenant : string;  (** the tenant the session last switched to *)
  sum_requests : int;  (** request lines read from it *)
  sum_responses : int;  (** responses enqueued to it *)
}
(** One closed session's final counters. *)

type stats = {
  sessions : int;  (** sessions accepted *)
  sessions_refused : int;  (** refused at the 64-session bound *)
  requests : int;  (** request lines read *)
  accepted : int;  (** admitted to the backlog *)
  tables : int;
  rejected : int;  (** policy rejections (and refused directives) *)
  shed : int;
  expired : int;
  parse_errors : int;
  disconnects : int;  (** sessions that vanished owing output *)
  closed : summary list;
      (** final counters of every closed session, {e sorted by session
          id}: close order depends on drain timing *)
}

type t

val create : ?config:config -> service:Service.t -> addr -> t
(** Bind and listen. Raises [Unix.Unix_error] if the address is taken.
    The service must not be used concurrently by anyone else while
    {!run} is live (all access happens on the loop thread). *)

val bound_addr : t -> addr
(** The actual address — resolves [Tcp 0] to the kernel-picked port. *)

val stop : t -> unit
(** Request graceful shutdown. Async-signal-safe (sets an atomic
    flag); callable from a signal handler or another domain. *)

val run : t -> unit
(** The event loop. Blocks until {!stop} (or a fatal listener error),
    then drains and returns. Ignores SIGPIPE for the process. *)

val serve_channel :
  stop:bool Atomic.t ->
  service:Service.t ->
  Unix.file_descr ->
  out_channel ->
  unit
(** The channel transport ([mpqcli serve]'s stdin or [--file]): serve
    the operator's session read from [fd], replies to [oc], until end of
    input or until [stop] is set (a signal handler may set it; it is
    seen within 0.25 s). Each read's requests are answered and flushed
    before the next read, in rounds of {!Service.create}'s [max_batch].
    On [stop], an incomplete last line is dropped and everything else
    already read is answered. *)

val stats : t -> stats
val render_stats : stats -> string
