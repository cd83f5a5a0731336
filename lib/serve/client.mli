(** Minimal line-protocol client for {!Server} — the counterpart the
    tests and perfbench speak through, with the response framing
    knowledge in one place: a reply is one
    [-- \[N\] tag: info] status line, plus — when the tag is
    [hit]/[miss] with [K rows] — exactly [K + 1] CSV lines (header and
    rows). Reads are bounded by a timeout so a protocol violation
    surfaces as {!Timeout}, never a hang. *)

exception Timeout
exception Protocol_error of string

type t

val connect : ?timeout_s:float -> Server.addr -> t
(** Default timeout 10 s per {!recv}. *)

val send : t -> string -> unit
(** Send one request line (the newline is appended). *)

val shutdown_send : t -> unit
(** Half-close: signal end of requests while still reading replies. *)

val close : t -> unit

type reply = {
  line : int;  (** the [N] of [-- \[N\]] — the request's line number *)
  tag : string;  (** [hit], [miss], [rejected], [shed], [deadline exceeded],
                     [parse error], [stats], … *)
  info : string;  (** remainder of the status line after [": "] *)
  body : string list;  (** CSV lines ([K + 1] of them) for [hit]/[miss] *)
}

val recv : t -> reply option
(** Next framed reply; [None] on EOF. Raises {!Timeout} when the
    server sends nothing for the configured window, {!Protocol_error}
    on an unparseable status line. *)

val recv_all : t -> reply list
(** Drain replies until EOF. *)

val table_csv : reply -> string option
(** The reply's CSV block ([body] re-joined, trailing newline), when
    it carries one. *)
