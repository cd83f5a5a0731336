(* Input bytes accumulate in [inbuf]; [pump] takes complete lines off its
   front. Every request line pushes a slot onto [owed], filled at once
   for directives and parse errors and when the service answers for
   queries; [output] releases filled slots from the front only, which is
   the whole ordering rule. A directive reached while [unanswered > 0]
   stays in [inbuf] and stops the pump; the answer that brings
   [unanswered] to 0 restarts it. *)

type tally = {
  mutable requests : int;
  mutable tables : int;
  mutable rejected : int;
  mutable expired : int;
  mutable parse_errors : int;
}

let tally () =
  { requests = 0; tables = 0; rejected = 0; expired = 0; parse_errors = 0 }

(* a reply owed to one request line; "" until it is known *)
type slot = { mutable text : string }

type t = {
  service : Service.t;
  operator : bool;
  deadline_ms : int option;
  tally : tally;
  admit : unit -> string option;
  submit : pending -> unit;
  inbuf : Buffer.t;
  mutable eof : bool;
  mutable line_no : int;
  mutable tenant : string;
  mutable requests : int;
  owed : slot Queue.t;
  mutable unanswered : int;
  mutable waiting : bool;  (* a directive is held behind [unanswered] *)
}

and pending = { s : t; line : int; slot : slot; request : Service.request }

let create ~operator ~deadline_ms ~tally ~admit ~submit service =
  { service; operator; deadline_ms; tally; admit; submit;
    inbuf = Buffer.create 256;
    eof = false; line_no = 0; tenant = Tenancy.default_id; requests = 0;
    owed = Queue.create (); unanswered = 0; waiting = false }

(* replies must stay one line to keep the framing parseable *)
let one_line msg =
  String.concat " | "
    (List.filter
       (fun x -> x <> "")
       (List.map String.trim (String.split_on_char '\n' msg)))

let rejected t msg =
  t.tally.rejected <- t.tally.rejected + 1;
  Obs.incr "server.rejected";
  "rejected: " ^ msg

(* the structured-refusal contract survives even a service blow-up *)
let internal_error t e =
  rejected t ("internal error: " ^ one_line (Printexc.to_string e))

(* \policy FILE applies to the session's tenant. An unchanged subject
   population keeps the incremental migration path; a swap forces the
   rotation fallback *)
let policy t path =
  let refused why = "policy " ^ path ^ " " ^ rejected t (one_line why) in
  match Authz.Policy_dsl.load path with
  | exception Authz.Policy_dsl.Syntax_error (l, msg) ->
      refused (Printf.sprintf "line %d: %s" l msg)
  | exception Sys_error msg -> refused msg
  | e ->
      let subjects = e.Authz.Policy_dsl.subjects in
      let same =
        List.sort compare subjects
        = List.sort compare (Service.subjects ~tenant:t.tenant t.service)
      in
      Service.set_policy
        ?subjects:(if same then None else Some subjects)
        ~tenant:t.tenant t.service e.Authz.Policy_dsl.policy;
      Printf.sprintf "policy: %s installed for %s, cache %s" path t.tenant
        (if same then "migrated incrementally"
         else "rotated (subjects changed)")

(* \stats and \tenant are all a shared socket honours: \tenant only
   retargets the session's own later requests (tenants are registered at
   startup, so no wire string creates or mutates one), while \policy and
   \invalidate rewrite the environment under every other session *)
let directive t line =
  match List.filter (fun x -> x <> "") (String.split_on_char ' ' line) with
  | [ "\\stats" ] ->
      "stats: " ^ one_line (Service.render_stats (Service.stats t.service))
  | [ "\\tenant" ] -> "tenant: " ^ t.tenant
  | [ "\\tenant"; "list" ] ->
      "tenants: " ^ String.concat ", " (Service.tenant_ids t.service)
  | [ "\\tenant"; "use"; id ] when List.mem id (Service.tenant_ids t.service)
    ->
      t.tenant <- id;
      "tenant: " ^ id
  | [ "\\tenant"; "use"; id ] ->
      rejected t (Printf.sprintf "unknown tenant %S" id)
  | (("\\policy" | "\\invalidate") as d) :: _ when not t.operator ->
      rejected t
        (Printf.sprintf
           "directive %s is not available over a socket (sessions are \
            isolated; only \\stats and \\tenant)"
           d)
  | [ "\\policy"; path ] -> policy t path
  | [ "\\invalidate" ] ->
      Service.invalidate t.service;
      "invalidated: every cached plan, sub-plan result and derived key dropped"
  | _ ->
      rejected t
        (Printf.sprintf
           "unknown directive %s (try \\stats, \\tenant [list|use ID], \
            \\policy FILE, \\invalidate)"
           line)

let answer_now t text =
  Queue.push { text = Printf.sprintf "-- [%d] %s\n" t.line_no text } t.owed

let parse_error t text =
  t.tally.parse_errors <- t.tally.parse_errors + 1;
  Obs.incr "server.parse_errors";
  answer_now t ("parse error" ^ text)

(* the transport may refuse a query line before it is parsed (a full
   backlog sheds at O(1)); its budget starts when the line is taken *)
let query t line =
  match t.admit () with
  | Some refusal -> answer_now t refusal
  | None -> (
      let deadline =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0))
          t.deadline_ms
      in
      match Service.parse ~tenant:t.tenant t.service line with
      | plan ->
          let slot = { text = "" } in
          Queue.push slot t.owed;
          t.unanswered <- t.unanswered + 1;
          t.submit
            { s = t; line = t.line_no; slot;
              request = Service.request ?deadline ~tenant:t.tenant plan }
      | exception Mpq_sql.Sql_lexer.Lex_error (msg, pos) ->
          parse_error t (Printf.sprintf " at %d: %s" pos (one_line msg))
      | exception Mpq_sql.Sql_parser.Parse_error msg
      | exception Mpq_sql.Sql_plan.Plan_error msg ->
          parse_error t (": " ^ one_line msg))

(* Take one line; [false] leaves it in place: a directive behind
   unanswered requests. *)
let take t raw =
  let line = String.trim raw in
  let is_directive = line <> "" && line.[0] = '\\' in
  if is_directive && t.unanswered > 0 then begin
    t.waiting <- true;
    false
  end
  else begin
    t.line_no <- t.line_no + 1;
    if line <> "" && line.[0] <> '#' then begin
      t.requests <- t.requests + 1;
      t.tally.requests <- t.tally.requests + 1;
      Obs.incr "server.requests";
      if not is_directive then query t line
      else
        answer_now t (try directive t line with e -> internal_error t e)
    end;
    true
  end

let pump t =
  t.waiting <- false;
  let data = Buffer.contents t.inbuf in
  let len = String.length data in
  let rec go start =
    match String.index_from_opt data start '\n' with
    | Some i when take t (String.sub data start (i - start)) -> go (i + 1)
    | None when t.eof && start < len ->
        if take t (String.sub data start (len - start)) then len else start
    | _ -> start
  in
  let rest = go 0 in
  if rest > 0 then begin
    Buffer.clear t.inbuf;
    Buffer.add_substring t.inbuf data rest (len - rest)
  end

let input t buf k =
  if k = 0 then t.eof <- true else Buffer.add_subbytes t.inbuf buf 0 k;
  if not t.waiting then pump t

let fill p text =
  let t = p.s in
  p.slot.text <- text;
  t.unanswered <- t.unanswered - 1;
  if t.unanswered = 0 && t.waiting then pump t

let refuse p text = fill p (Printf.sprintf "-- [%d] %s\n" p.line text)

let answer p (r : Service.response) =
  let c = p.s.tally in
  match r.Service.outcome with
  | Service.Table tbl ->
      c.tables <- c.tables + 1;
      Obs.incr "server.tables";
      fill p
        (Printf.sprintf "-- [%d] %s: plan %.2f ms, exec %.2f ms, %d rows\n%s"
           p.line
           (match r.Service.status with
           | Service.Hit -> "hit"
           | Service.Miss -> "miss")
           r.Service.plan_ms r.Service.exec_ms
           (Engine.Table.cardinality tbl)
           (Engine.Csv.to_string tbl))
  | Service.Rejected msg -> refuse p (rejected p.s (one_line msg))
  | Service.Expired why ->
      c.expired <- c.expired + 1;
      Obs.incr "server.deadline";
      refuse p ("deadline exceeded: " ^ one_line why)

let serve service items =
  match
    Service.submit_batch_requests service (List.map (fun p -> p.request) items)
  with
  | resps -> List.iter2 answer items resps
  | exception e -> List.iter (fun p -> refuse p (internal_error p.s e)) items

let output t f =
  while (not (Queue.is_empty t.owed)) && (Queue.peek t.owed).text <> "" do
    f (Queue.pop t.owed).text
  done

let blocked t = t.waiting
let idle t = Queue.is_empty t.owed
let tenant t = t.tenant
let requests t = t.requests
