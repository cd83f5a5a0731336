(** Overload-safe socket front-end for the query {!Service}.

    One process, one {!Service}, many concurrent client sessions over
    the same line protocol [mpqcli serve] speaks on stdin: one request
    per line, one framed response per request — a
    [-- \[N\] hit|miss: …] status line followed by the CSV table, or a
    single structured refusal line. The accept path is a
    single-threaded [select] loop; planning and execution stay on the
    service's {!Par} pool. Because every cache access happens on the
    loop thread, session isolation holds by construction: a malformed,
    slow, stalled or vanished connection can corrupt neither another
    session's response stream nor the shared plan cache.

    Sessions are tenant-scoped: each starts under
    {!Tenancy.default_id} and may switch with [\tenant use <id>]
    (plus [\tenant] / [\tenant list] to inspect); every subsequent
    request is parsed and served under that tenant's policy
    environment. Tenants are registered at startup
    ({!Service.add_tenant}) — no wire input can create or mutate one —
    and tenant isolation itself is the service's key-space guarantee,
    not a server concern.

    The overload behaviour is engineered in, not bolted on:

    - {b admission control} — a bounded global backlog; a request
      arriving when it is full is refused {e immediately} with
      [-- \[N\] shed: backlog full …]. Requests are never silently
      dropped and a response is never a partial table.
    - {b deadlines} — each request's budget starts when its line is
      read; the service checks it at admission and again between the
      plan and exec phases, answering
      [-- \[N\] deadline exceeded: …].
    - {b backpressure} — a session that stops reading its responses
      accumulates output up to a high-water mark, after which the
      server stops {e reading} it (never drops what it owes).
    - {b graceful shutdown} — {!stop} (wired to SIGTERM/SIGINT by the
      CLI) closes the listener, drains every admitted request through
      the service, flushes each session's output within a grace
      budget, and {!run} returns with final stats.

    A final request line that arrives without its newline (the client
    half-closes right after it) is still a request and is answered.
    The server carries no fault injection of its own: the contract
    above is exercised from the client side of real sockets — late,
    garbled, stalled and hung-up sessions — by [test/test_server.ml]. *)

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
          is read (default none) *)
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
          id}: sessions die in whatever order drain timing dictates, so
          presenting them in close order would make the final stats
          line nondeterministic across runs (and flake the CI grep) *)
}

val format_response : int -> Service.response -> string
(** [format_response n r] frames the response to request line [n] as
    the wire protocol carries it: [-- \[n\] hit|miss: …] followed by
    the CSV table, or a single [-- \[n\] rejected: …] /
    [-- \[n\] deadline exceeded: …] line (a multi-line message is
    joined onto one line). The stdin mode of [mpqcli serve] prints the
    same frames. *)

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

val stats : t -> stats
val render_stats : stats -> string
