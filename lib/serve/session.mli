(** The line protocol, once for every transport: a session is one
    client's request stream; its transport (a {!Server} socket or
    {!Server.serve_channel}) moves bytes and decides when to dispatch.

    - {b lines} — input splits on ['\n'], each line trimmed and numbered
      from 1. Blank lines and [#] comments owe no reply. At end of input
      an unterminated last line is still a line.
    - {b queries} — parsed under the session's tenant and handed to the
      transport, or answered [-- \[N\] parse error…] at once.
    - {b directives} — [\stats], [\tenant], [\tenant list],
      [\tenant use ID]; on an operator session also [\policy FILE] and
      [\invalidate]. A directive runs once every earlier request of its
      session is answered, and the lines after it wait with it, so its
      effect (and [\stats]' counts) orders with the queries as written.
    - {b replies} — exactly one per request line, in line order: a
      [-- \[N\] tag: …] status line, followed by the CSV table for
      [hit]/[miss]. *)

type tally = {
  mutable requests : int;  (** request lines read *)
  mutable tables : int;
  mutable rejected : int;  (** policy rejections and refused directives *)
  mutable expired : int;
  mutable parse_errors : int;
}
(** Counters of all of a transport's sessions; each increment also bumps
    Obs [server.<field>] ([server.deadline] for [expired]). *)

val tally : unit -> tally

type t

type pending
(** A parsed query line, owed one reply. *)

val create :
  operator:bool ->
  deadline_ms:int option ->
  tally:tally ->
  admit:(unit -> string option) ->
  submit:(pending -> unit) ->
  Service.t ->
  t
(** A session under {!Tenancy.default_id}. Only [operator] sessions
    honour [\policy] and [\invalidate]. [deadline_ms] is each request's
    budget from the moment its line is taken. [admit ()] is asked before
    a query line is parsed: [Some reply] refuses it with that one line
    (e.g. ["shed: backlog full"]). [submit] receives the parsed query
    lines in line order, for {!serve}. *)

val input : t -> Bytes.t -> int -> unit
(** [input t buf k] feeds the first [k] bytes of [buf]; [k = 0] is end
    of input, as from [Unix.read]. *)

val serve : Service.t -> pending list -> unit
(** Answer requests with one {!Service.submit_batch_requests}; if it
    raises, each is answered [rejected: internal error: …]. An answer
    that frees a held directive resumes its session, which may submit
    more. *)

val output : t -> (string -> unit) -> unit
(** Hand over the replies now due, in line order. *)

val blocked : t -> bool
(** A directive waits on earlier requests; further input waits too. *)

val idle : t -> bool
(** Every reply owed so far has been handed over. *)

val tenant : t -> string
val requests : t -> int
