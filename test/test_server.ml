(* The socket server's overload contract, asserted over real sockets:

   1. framing — every request line ends in exactly one framed response
      (status comment + CSV, or a single structured refusal line);
      accepted requests answer byte-identically to a direct
      Service.submit oracle;
   2. isolation — a session spraying garbage or vanishing mid-batch
      leaves a well-behaved neighbour's (normalized) response stream
      identical to a run where it had the server to itself, and leaves
      the shared cache statistics untouched by refused requests;
   3. overload — a backlog bound refuses the excess with structured
      shed lines (none admitted when the bound is zero), the session
      bound refuses the 65th connection with one shed line, deadlines
      are refused structurally at admission and between plan and exec;
   4. shutdown — stop() drains a backlog deeper than one dispatch turn,
      flushes, and ends every session with EOF, not a hang;
   5. chaos — a 25-seed sweep of client-side faults (late lines,
      garbled lines, stalled and hung-up sessions) never produces an
      unstructured outcome: every reply parses, every table matches
      the oracle byte for byte, every well-behaved stream ends in EOF
      within the timeout. *)

open Authz

let demo_tables (env : Policy_dsl.t) =
  let find name =
    List.find (fun s -> s.Relalg.Schema.name = name) env.Policy_dsl.schemas
  in
  let s x = Relalg.Value.Str x and n x = Relalg.Value.Int x in
  let v = Relalg.Value.date_of_string in
  [ ( "Hosp",
      Engine.Table.of_schema (find "Hosp")
        [ [| s "alice"; v "1980-01-01"; s "stroke"; s "tpa" |];
          [| s "bob"; v "1975-05-12"; s "stroke"; s "surgery" |];
          [| s "carol"; v "1990-09-30"; s "flu"; s "rest" |];
          [| s "dave"; v "1968-03-22"; s "stroke"; s "tpa" |] ] );
    ( "Ins",
      Engine.Table.of_schema (find "Ins")
        [ [| s "alice"; n 120 |]; [| s "bob"; n 300 |];
          [| s "carol"; n 80 |]; [| s "dave"; n 150 |] ] ) ]

let example_service ?policy () =
  let env = Policy_dsl.parse Policy_dsl.example in
  Serve.Service.create
    ~policy:(Option.value policy ~default:env.Policy_dsl.policy)
    ~subjects:env.Policy_dsl.subjects ~tables:(demo_tables env) ()

let queries =
  [| "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by \
      T having P>100";
     "select S, D from Hosp where T='tpa'";
     "select C, P from Ins where P>100";
     "select D, count(T) from Hosp group by D";
     "select T, P from Hosp join Ins on S=C where P>100";
     "select avg(P) from Ins" |]

(* the direct-call oracle: table bytes are a pure function of (query,
   environment, seed) — independent of cache history and of how the
   query reached the service — so a fresh service is a valid oracle
   for any accepted request *)
let oracle_csv ?policy () =
  let service = example_service ?policy () in
  Array.map
    (fun q ->
      match (Serve.Service.submit_sql service q).Serve.Service.outcome with
      | Serve.Service.Table t -> Engine.Csv.to_string t
      | Serve.Service.Rejected m -> Alcotest.failf "oracle rejected: %s" m
      | Serve.Service.Expired m -> Alcotest.failf "oracle expired: %s" m)
    queries

let with_server ?config ?(service = example_service ()) f =
  let server = Serve.Server.create ?config ~service (Serve.Server.Tcp 0) in
  let addr = Serve.Server.bound_addr server in
  let d = Domain.spawn (fun () -> Serve.Server.run server) in
  let finally () =
    Serve.Server.stop server;
    Domain.join d
  in
  Fun.protect ~finally (fun () -> f server service addr)

(* timing-dependent tokens scrubbed; hit|miss folded together (cache
   history legitimately differs between a shared and a private run) *)
let normalize_reply (r : Serve.Client.reply) =
  let tag =
    match r.Serve.Client.tag with "hit" | "miss" -> "served" | t -> t
  in
  Printf.sprintf "[%d] %s%s" r.Serve.Client.line tag
    (match Serve.Client.table_csv r with
    | Some csv -> ":\n" ^ csv
    | None -> "")

let structured_tags =
  [ "served"; "rejected"; "shed"; "deadline exceeded"; "stats" ]

let check_structured (r : Serve.Client.reply) =
  let tag =
    match r.Serve.Client.tag with "hit" | "miss" -> "served" | t -> t
  in
  if
    not
      (List.mem tag structured_tags
      || String.starts_with ~prefix:"parse error" tag)
  then Alcotest.failf "unstructured reply tag %S" r.Serve.Client.tag

(* one well-behaved session: send every line, half-close, read to EOF *)
let exchange addr lines =
  let c = Serve.Client.connect addr in
  List.iter (Serve.Client.send c) lines;
  Serve.Client.shutdown_send c;
  let rs = Serve.Client.recv_all c in
  Serve.Client.close c;
  rs

(* --- framing ---------------------------------------------------------- *)

let test_two_sessions () =
  let oracle = oracle_csv () in
  with_server @@ fun server _service addr ->
  let a = Serve.Client.connect addr and b = Serve.Client.connect addr in
  Serve.Client.send a queries.(0);
  Serve.Client.send b queries.(1);
  Serve.Client.send a queries.(2);
  Serve.Client.send b queries.(0);
  Serve.Client.shutdown_send a;
  Serve.Client.shutdown_send b;
  let ra = Serve.Client.recv_all a and rb = Serve.Client.recv_all b in
  Serve.Client.close a;
  Serve.Client.close b;
  Alcotest.(check int) "a got both replies" 2 (List.length ra);
  Alcotest.(check int) "b got both replies" 2 (List.length rb);
  let check_table qi (r : Serve.Client.reply) =
    match Serve.Client.table_csv r with
    | Some csv ->
        Alcotest.(check string)
          (Printf.sprintf "oracle bytes for query %d" qi)
          oracle.(qi) csv
    | None -> Alcotest.failf "expected a table, got %s" r.Serve.Client.tag
  in
  let by_line =
    List.sort (fun (x : Serve.Client.reply) y -> compare x.line y.line)
  in
  List.iter2 check_table [ 0; 2 ] (by_line ra);
  List.iter2 check_table [ 1; 0 ] (by_line rb);
  let st = Serve.Server.stats server in
  Alcotest.(check int) "two sessions" 2 st.Serve.Server.sessions;
  Alcotest.(check int) "four accepted" 4 st.Serve.Server.accepted;
  Alcotest.(check int) "four tables" 4 st.Serve.Server.tables

let test_stats_directive () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ())
  @@ fun () ->
  let server, rs =
    with_server @@ fun server _service addr ->
    (server,
     exchange addr
       [ "\\stats"; "\\policy /tmp/nope.mpq"; "\\tenant use nope" ])
  in
  (* the mutating directive and the unknown tenant refused structurally *)
  Alcotest.(check (list string)) "stats, then two refusals"
    [ "stats"; "rejected"; "rejected" ]
    (List.map (fun (r : Serve.Client.reply) -> r.Serve.Client.tag) rs);
  Alcotest.(check string) "refusal names what a socket honours"
    "directive \\policy is not available over a socket \
     (sessions are isolated; only \\stats and \\tenant)"
    (List.nth rs 1).Serve.Client.info;
  (* the loop has returned: the stats record and Obs agree *)
  Alcotest.(check (pair int int)) "refusals counted in stats and in Obs"
    (2, 2)
    ((Serve.Server.stats server).Serve.Server.rejected,
     Obs.counter "server.rejected")

(* Client.send always appends the newline, so this speaks raw Unix *)
let test_unterminated_line () =
  let oracle = (oracle_csv ()).(5) in
  let text =
    with_server @@ fun _server _service addr ->
    let port = match addr with Serve.Server.Tcp p -> p | _ -> assert false in
    let ic, oc =
      Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    in
    output_string oc queries.(5);
    flush oc;
    Unix.shutdown (Unix.descr_of_out_channel oc) Unix.SHUTDOWN_SEND;
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        In_channel.input_all ic)
  in
  Alcotest.(check bool) ("answered as line 1: " ^ text) true
    (String.starts_with ~prefix:"-- [1] miss: " text
    && String.ends_with ~suffix:(" 1 rows\n" ^ oracle) text)

(* An engine error while one request executes rejects that request
   alone: [good; bad; good] pipelined on one session answer table,
   rejected, table, and a neighbour session is served normally. *)
let test_exec_error_pipelined () =
  let text =
    with_server @@ fun _server _service addr ->
    let a = Serve.Client.connect addr and b = Serve.Client.connect addr in
    List.iter (Serve.Client.send a)
      [ "select T from Hosp"; "select sum(T) from Hosp"; "select D from Hosp" ];
    Serve.Client.send b queries.(5);
    Serve.Client.shutdown_send a;
    Serve.Client.shutdown_send b;
    let ra = Serve.Client.recv_all a and rb = Serve.Client.recv_all b in
    Serve.Client.close a;
    Serve.Client.close b;
    List.map
      (fun (r : Serve.Client.reply) ->
        Printf.sprintf "[%d] %s" r.Serve.Client.line r.Serve.Client.tag)
      (ra @ rb)
  in
  Alcotest.(check (list string)) "only the failing request is rejected"
    [ "[1] miss"; "[2] rejected"; "[3] miss"; "[1] miss" ] text

(* An integer literal past [max_int] is a lexical error: its line gets a
   parse error reply, and the server goes on serving that session and a
   second one. *)
let test_out_of_range_literal () =
  let oracle = oracle_csv () in
  let ra, rb =
    with_server @@ fun _server _service addr ->
    let ra =
      exchange addr
        [ "select T from Hosp limit 99999999999999999999"; queries.(5) ]
    in
    (ra, exchange addr [ queries.(5) ])
  in
  (match ra with
  | [ bad; good ] ->
      Alcotest.(check (pair string string)) "a parse error at the literal"
        ("parse error at 25", "integer literal out of range")
        (bad.Serve.Client.tag, bad.Serve.Client.info);
      Alcotest.(check (option string)) "the next line is served"
        (Some oracle.(5)) (Serve.Client.table_csv good)
  | rs -> Alcotest.failf "expected two replies, got %d" (List.length rs));
  Alcotest.(check (list (option string))) "a second session is served"
    [ Some oracle.(5) ]
    (List.map Serve.Client.table_csv rb)

(* An unknown column is refused by name and never interned: a client
   could otherwise grow the process's attribute table without bound, one
   fresh name per request. 10 000 distinct names, in every position a
   column name can take, through Service.parse and over the wire. *)
let unknown_column_sql i =
  let n = Printf.sprintf "nosuch%05d" i in
  match i mod 6 with
  | 0 -> Printf.sprintf "select %s from Hosp" n
  | 1 -> Printf.sprintf "select S from Hosp where %s = 'x'" n
  | 2 -> Printf.sprintf "select D, count(T) from Hosp group by D, %s" n
  | 3 -> Printf.sprintf "select S from Hosp order by %s" n
  | 4 -> Printf.sprintf "select T from Hosp join Ins on S = %s" n
  | _ -> Printf.sprintf "select avg(%s) from Ins" n

let test_unknown_columns_not_interned () =
  let count = 10_000 in
  let service = example_service () in
  let before = Relalg.Attr.interned () in
  for i = 0 to count - 1 do
    match Serve.Service.parse service (unknown_column_sql i) with
    | _ -> Alcotest.failf "accepted: %s" (unknown_column_sql i)
    | exception Mpq_sql.Sql_plan.Plan_error msg ->
        let want = Printf.sprintf "unknown column nosuch%05d" i in
        if msg <> want then Alcotest.failf "%S: want %S" msg want
  done;
  Alcotest.(check int) "Service.parse interns nothing" before
    (Relalg.Attr.interned ());
  with_server ~service @@ fun _server _service addr ->
  let c = Serve.Client.connect addr in
  let batch = 500 in
  for b = 0 to (count / batch) - 1 do
    for i = b * batch to ((b + 1) * batch) - 1 do
      Serve.Client.send c (unknown_column_sql i)
    done;
    for i = b * batch to ((b + 1) * batch) - 1 do
      match Serve.Client.recv c with
      | Some r ->
          Alcotest.(check (pair string string))
            (Printf.sprintf "line %d" (i + 1))
            ("parse error", Printf.sprintf "unknown column nosuch%05d" i)
            (r.Serve.Client.tag, r.Serve.Client.info)
      | None -> Alcotest.failf "EOF before reply %d" (i + 1)
    done
  done;
  Serve.Client.close c;
  Alcotest.(check int) "the line protocol interns nothing" before
    (Relalg.Attr.interned ())

(* --- one protocol, two transports ------------------------------------ *)

(* raw bytes in (so a last line may lack its newline), half-close, and
   every reply parsed by Client *)
let socket_script addr script =
  let port = match addr with Serve.Server.Tcp p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let off = ref 0 in
  while !off < String.length script do
    off :=
      !off
      + Unix.write_substring fd script !off (String.length script - !off)
  done;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let c = Serve.Client.of_fd fd in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
      Serve.Client.recv_all c)

(* the channel transport (mpqcli serve's stdin) over temporary files *)
let channel_script ~service script =
  let inp = Filename.temp_file "mpq_script" ".in" in
  let out = Filename.temp_file "mpq_script" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove inp; Sys.remove out)
    (fun () ->
      Out_channel.with_open_bin inp (fun oc -> output_string oc script);
      let fd = Unix.openfile inp [ Unix.O_RDONLY ] 0 in
      Out_channel.with_open_bin out (fun oc ->
          Serve.Server.serve_channel ~stop:(Atomic.make false) ~service fd oc);
      Unix.close fd;
      let c = Serve.Client.of_fd (Unix.openfile out [ Unix.O_RDONLY ] 0) in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          Serve.Client.recv_all c))

let scrub_ms = Str.global_replace (Str.regexp "[0-9]+\\.[0-9]+ ms") "_ ms"

let framed (r : Serve.Client.reply) =
  Printf.sprintf "[%d] %s: %s%s" r.Serve.Client.line r.Serve.Client.tag
    (scrub_ms r.Serve.Client.info)
    (match Serve.Client.table_csv r with Some csv -> "\n" ^ csv | None -> "")

(* A directive, a parse error and a query pipelined behind a query: each
   reply waits for the lines before it, and \stats counts line 1. The
   socket used to answer [2] [3] [5] [1] [4], its \stats reading 0
   queries. *)
let order_script =
  String.concat "\n"
    [ queries.(0); "\\stats"; "select from where"; queries.(3); "\\tenant" ]
  ^ "\n"

let test_socket_line_order () =
  let rs = with_server (fun _ _ addr -> socket_script addr order_script) in
  Alcotest.(check (list string)) "replies in line order"
    [ "[1] miss"; "[2] stats"; "[3] parse error"; "[4] miss"; "[5] tenant" ]
    (List.map
       (fun (r : Serve.Client.reply) ->
         Printf.sprintf "[%d] %s" r.Serve.Client.line r.Serve.Client.tag)
       rs);
  Alcotest.(check bool) "\\stats counts the query before it" true
    (String.starts_with ~prefix:"1 queries" (List.nth rs 1).Serve.Client.info)

let test_transports_agree () =
  let socket = with_server (fun _ _ addr -> socket_script addr order_script) in
  let stdin = channel_script ~service:(example_service ()) order_script in
  Alcotest.(check (list string)) "same framed replies, ms aside"
    (List.map framed socket) (List.map framed stdin)

(* The grammar fuzzer: random mixes of queries, garbage, every directive
   (\policy of a missing and of a malformed file, \tenant use of an
   unknown id), blank and comment lines, very long lines, and a last
   line with or without its newline, through both transports. Every
   request line gets exactly one reply, in line order, that Client
   parses; nothing is an internal error; and the two transports give the
   same replies except to the operator-only directives. *)
let bare_policy =
  lazy
    (let f = Filename.temp_file "mpq_bare" ".mpq" in
     Out_channel.with_open_bin f (fun oc -> output_string oc "relation\n");
     f)

let fuzz_line =
  let open QCheck.Gen in
  frequency
    [ (5, map (Array.get queries) (int_bound (Array.length queries - 1)));
      (1, return "select sum(T) from Hosp");
      ( 2,
        oneofl
          [ "select from"; "select T from Nope"; "select nosuch from Hosp";
            ")))) ((((" ; "select T from Hosp limit 99999999999999999999";
            "\x01\x02 not sql \x03"; "-- [3] miss: not a reply";
            "select T, from Hosp"; "select 'unterminated from Hosp" ] );
      (1, string_size ~gen:(char_range ' ' '~') (int_range 1 40));
      ( 4,
        oneofl
          [ "\\stats"; "\\tenant"; "\\tenant list"; "\\tenant use blue";
            "\\tenant use default"; "\\tenant use nope"; "\\tenant use";
            "\\policy /nonexistent/policy.mpq"; "\\invalidate"; "\\bogus";
            "\\stats now"; "\\"; "  \\stats  "; "\\policy a b" ] );
      (1, map (fun () -> "\\policy " ^ Lazy.force bare_policy) unit);
      (2, oneofl [ ""; "   "; "# a comment"; "#"; "\t"; "\r" ]);
      (1, map (fun n -> String.make n 'x') (int_range 5000 20000));
      (1, map (fun n -> "# " ^ String.make n 'c') (int_range 5000 20000));
      (1, map (fun n -> "\\" ^ String.make n 'z') (int_range 5000 20000)) ]

let fuzz_script =
  QCheck.make
    ~print:(fun (lines, nl) ->
      String.concat "\n" (List.map (fun l -> Printf.sprintf "%S" l) lines)
      ^ if nl then "\n(newline-terminated)" else "\n(no final newline)")
    QCheck.Gen.(pair (list_size (int_range 1 25) fuzz_line) bool)

(* the request lines of a script, numbered as the protocol numbers them *)
let request_lines script =
  let parts = String.split_on_char '\n' script in
  let parts =
    if String.ends_with ~suffix:"\n" script || script = "" then
      List.filteri (fun i _ -> i < List.length parts - 1) parts
    else parts
  in
  List.concat
    (List.mapi
       (fun i l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then [] else [ (i + 1, l) ])
       parts)

let fuzz_service () =
  let service = example_service () in
  Serve.Service.add_tenant service ~id:"blue" ();
  service

let operator_only line =
  String.starts_with ~prefix:"\\policy" line
  || String.starts_with ~prefix:"\\invalidate" line

(* what must agree across transports: tables by bytes, hit/miss and the
   cache statistics aside (\invalidate changes both on stdin only) *)
let comparable (r : Serve.Client.reply) =
  match r.Serve.Client.tag with
  | "hit" | "miss" ->
      "served\n" ^ Option.value ~default:"" (Serve.Client.table_csv r)
  | "stats" -> "stats"
  | tag -> tag ^ ": " ^ r.Serve.Client.info

let prop_fuzz addr (lines, nl) =
  let script = String.concat "\n" lines ^ if nl then "\n" else "" in
  let want = request_lines script in
  let run name serve =
    let rs =
      try serve () with
      | Serve.Client.Protocol_error m ->
          QCheck.Test.fail_reportf "%s: unparseable reply: %s" name m
      | Serve.Client.Timeout -> QCheck.Test.fail_reportf "%s: hung" name
    in
    if List.map (fun (r : Serve.Client.reply) -> r.Serve.Client.line) rs
       <> List.map fst want
    then
      QCheck.Test.fail_reportf "%s: replied to lines [%s], owed [%s]" name
        (String.concat "; "
           (List.map (fun (r : Serve.Client.reply) -> string_of_int r.line) rs))
        (String.concat "; " (List.map (fun (n, _) -> string_of_int n) want));
    List.iter
      (fun (r : Serve.Client.reply) ->
        let contains sub s =
          try ignore (Str.search_forward (Str.regexp_string sub) s 0); true
          with Not_found -> false
        in
        if contains "internal error" r.Serve.Client.info then
          QCheck.Test.fail_reportf "%s line %d: %s" name r.line r.info)
      rs;
    rs
  in
  let socket = run "socket" (fun () -> socket_script addr script) in
  let stdin =
    run "stdin" (fun () -> channel_script ~service:(fuzz_service ()) script)
  in
  List.iter2
    (fun ((_, line), a) b ->
      if (not (operator_only line)) && comparable a <> comparable b then
        QCheck.Test.fail_reportf "line %d %S: socket %S, stdin %S" a.line line
          (comparable a) (comparable b))
    (List.combine want socket) stdin;
  true

(* one server for the whole run: a warm cache changes only hit/miss and
   the statistics, which [comparable] folds *)
let test_fuzz =
  let addr = ref None in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60
         ~name:"line-protocol grammar fuzzer, both transports" fuzz_script
         (fun x -> prop_fuzz (Option.get !addr) x))
  in
  ( name,
    speed,
    fun () ->
      with_server ~service:(fuzz_service ()) (fun _ _ a ->
          addr := Some a;
          run ()) )

(* --- isolation -------------------------------------------------------- *)

let victim_run addr =
  List.map normalize_reply (exchange addr (Array.to_list queries))

let test_session_isolation () =
  (* the victim alone on a fresh server *)
  let solo = with_server (fun _ _ addr -> victim_run addr) in
  (* the victim next to a garbage-spraying session and one that
     vanishes owing responses *)
  let shared =
    with_server @@ fun _server _service addr ->
    let garbler = Serve.Client.connect addr in
    let vanisher = Serve.Client.connect addr in
    Serve.Client.send garbler "\x01\x02 not ( sql | at ; all \x03";
    Serve.Client.send vanisher queries.(0);
    Serve.Client.send vanisher queries.(1);
    Serve.Client.close vanisher;
    let rs = victim_run addr in
    Serve.Client.send garbler ")))) still not sql ((((";
    Serve.Client.shutdown_send garbler;
    let gr = Serve.Client.recv_all garbler in
    Serve.Client.close garbler;
    List.iter check_structured gr;
    Alcotest.(check int) "garbler got structured refusals" 2 (List.length gr);
    List.iter
      (fun (r : Serve.Client.reply) ->
        Alcotest.(check bool)
          (Printf.sprintf "refusal tag %S" r.Serve.Client.tag)
          true
          (String.starts_with ~prefix:"parse error" r.Serve.Client.tag))
      gr;
    rs
  in
  Alcotest.(check (list string))
    "victim stream identical next to faulty sessions" solo shared

(* Two sessions per tenant ("blue": the example minus Y's plaintext P
   on Ins) send the pool twice. Every table is its tenant's single-tenant
   oracle, the second pass hits, no hit crosses tenants. *)
let test_tenants_over_sockets () =
  let blue =
    (Policy_dsl.parse
       (Str.global_replace
          (Str.regexp_string "authorize Ins to Y plain P enc C")
          "authorize Ins to Y enc C" Policy_dsl.example))
      .Policy_dsl.policy
  in
  let default = Serve.Tenancy.default_id in
  let oracles = [ (default, oracle_csv ()); ("blue", oracle_csv ~policy:blue ()) ] in
  let service = example_service () in
  Serve.Service.add_tenant service ~id:"blue" ~policy:blue ();
  let server =
    with_server ~service @@ fun server _service addr ->
    let sessions =
      List.map
        (fun tenant ->
          let c = Serve.Client.connect addr in
          if tenant <> default then begin
            Serve.Client.send c ("\\tenant use " ^ tenant);
            Alcotest.(check (option string)) "switched" (Some "tenant")
              (Option.map (fun r -> r.Serve.Client.tag) (Serve.Client.recv c))
          end;
          (tenant, c))
        [ default; "blue"; default; "blue" ]
    in
    List.iter
      (fun pass ->
        List.iter (fun (_, c) -> Array.iter (Serve.Client.send c) queries) sessions;
        List.iter
          (fun (tenant, c) ->
            let rs = Array.map (fun _ -> Option.get (Serve.Client.recv c)) queries in
            let label = Printf.sprintf "%s, pass %d: " tenant pass in
            Alcotest.(check (array (option string))) (label ^ "oracle bytes")
              (Array.map Option.some (List.assoc tenant oracles))
              (Array.map Serve.Client.table_csv rs);
            if pass = 2 then
              Alcotest.(check bool) (label ^ "hits") true
                (Array.for_all (fun r -> r.Serve.Client.tag = "hit") rs))
          sessions)
      [ 1; 2 ];
    List.iter (fun (_, c) -> Serve.Client.shutdown_send c; Serve.Client.close c) sessions;
    server
  in
  Alcotest.(check int) "no cross-tenant hits" 0
    (Serve.Service.stats service).Serve.Service.cross_tenant_hits;
  let closed = (Serve.Server.stats server).Serve.Server.closed in
  Alcotest.(check (list string)) "closed sessions name both tenants"
    [ "blue"; "default" ]
    (List.sort_uniq compare (List.map (fun c -> c.Serve.Server.sum_tenant) closed))

(* --- overload --------------------------------------------------------- *)

let test_shed_structured () =
  with_server
    ~config:{ Serve.Server.default_config with Serve.Server.backlog = 0 }
  @@ fun server service addr ->
  let rs = exchange addr (List.init 5 (fun i -> queries.(i))) in
  Alcotest.(check int) "every request answered" 5 (List.length rs);
  List.iter
    (fun (r : Serve.Client.reply) ->
      Alcotest.(check string) "structured shed" "shed" r.Serve.Client.tag;
      Alcotest.(check (list string)) "single line, no body" []
        r.Serve.Client.body)
    rs;
  let st = Serve.Server.stats server in
  Alcotest.(check int) "all shed" 5 st.Serve.Server.shed;
  Alcotest.(check int) "none accepted" 0 st.Serve.Server.accepted;
  (* a refused request never touches the service or its cache *)
  let ss = Serve.Service.stats service in
  Alcotest.(check int) "service untouched" 0 ss.Serve.Service.queries;
  Alcotest.(check int) "no hits" 0 ss.Serve.Service.hits;
  Alcotest.(check int) "no misses" 0 ss.Serve.Service.misses

(* The 65th concurrent connection is refused with one structured line
   and closed; the 64 live sessions are still served. *)
let test_session_limit () =
  let oracle = oracle_csv () in
  with_server @@ fun server _service addr ->
  let live = List.init 64 (fun _ -> Serve.Client.connect addr) in
  let extra = Serve.Client.connect addr in
  (match Serve.Client.recv_all extra with
  | [ r ] ->
      Alcotest.(check (pair int string)) "refusal frame" (0, "shed")
        (r.Serve.Client.line, r.Serve.Client.tag);
      Alcotest.(check string) "refusal text" "session limit (64 active)"
        r.Serve.Client.info
  | rs -> Alcotest.failf "expected one refusal line, got %d" (List.length rs));
  Serve.Client.close extra;
  List.iteri
    (fun i c -> Serve.Client.send c queries.(i mod Array.length queries))
    live;
  List.iteri
    (fun i c ->
      Serve.Client.shutdown_send c;
      (match Serve.Client.recv_all c with
      | [ r ] ->
          Alcotest.(check (option string))
            (Printf.sprintf "session %d answered" i)
            (Some oracle.(i mod Array.length queries))
            (Serve.Client.table_csv r)
      | rs ->
          Alcotest.failf "session %d: expected one reply, got %d" i
            (List.length rs));
      Serve.Client.close c)
    live;
  let st = Serve.Server.stats server in
  Alcotest.(check int) "one session refused" 1 st.Serve.Server.sessions_refused;
  Alcotest.(check int) "64 sessions accepted" 64 st.Serve.Server.sessions;
  Alcotest.(check int) "64 tables" 64 st.Serve.Server.tables

let test_deadline_at_admission () =
  with_server
    ~config:
      { Serve.Server.default_config with
        Serve.Server.deadline_ms = Some (-1) }
  @@ fun server service addr ->
  let rs = exchange addr (List.init 4 (fun i -> queries.(i))) in
  Alcotest.(check int) "every request answered" 4 (List.length rs);
  List.iter
    (fun (r : Serve.Client.reply) ->
      Alcotest.(check string) "structured expiry" "deadline exceeded"
        r.Serve.Client.tag;
      Alcotest.(check bool) "names the checkpoint" true
        (r.Serve.Client.info = "at admission"))
    rs;
  let st = Serve.Server.stats server in
  Alcotest.(check int) "counted as expired" 4 st.Serve.Server.expired;
  (* the service saw them (and counted them) but its cache never moved *)
  let ss = Serve.Service.stats service in
  Alcotest.(check int) "service counted expiries" 4 ss.Serve.Service.expired;
  Alcotest.(check int) "no hits" 0 ss.Serve.Service.hits;
  Alcotest.(check int) "no misses" 0 ss.Serve.Service.misses;
  Alcotest.(check int) "no cache entries" 0
    (List.length (Serve.Service.cache_keys service))

(* between plan and exec: a fake clock on the service itself forces the
   second checkpoint deterministically — admission passes at t=0, the
   plan lands, then the clock jumps past the deadline *)
let test_deadline_between_plan_and_exec () =
  let env = Policy_dsl.parse Policy_dsl.example in
  let calls = ref 0 in
  let now () =
    incr calls;
    if !calls = 1 then 0.0 else 100.0
  in
  let service =
    Serve.Service.create ~now ~policy:env.Policy_dsl.policy
      ~subjects:env.Policy_dsl.subjects ~tables:(demo_tables env) ()
  in
  let q = Serve.Service.parse service queries.(0) in
  let r =
    Serve.Service.submit_request service
      (Serve.Service.request ~deadline:50.0 q)
  in
  (match r.Serve.Service.outcome with
  | Serve.Service.Expired why ->
      Alcotest.(check string) "names the checkpoint" "between plan and exec"
        why
  | Serve.Service.Table _ -> Alcotest.fail "expired request served"
  | Serve.Service.Rejected m -> Alcotest.failf "rejected instead: %s" m);
  Alcotest.(check bool) "the plan itself landed" true
    (r.Serve.Service.planned <> None);
  (* the planning work was not wasted: the entry is cached and a live
     resubmission hits *)
  let r2 = Serve.Service.submit service q in
  Alcotest.(check bool) "resubmission hits" true
    (r2.Serve.Service.status = Serve.Service.Hit)

(* --- graceful shutdown ------------------------------------------------ *)

(* 20 lines in one write: more than the 16 the loop hands the service
   per turn, so stop() lands while part of the backlog is still queued
   and must answer it rather than drop it *)
let test_shutdown_drains () =
  let q = queries.(5) in
  let oracle = (oracle_csv ()).(5) in
  let replies =
    with_server @@ fun server _service addr ->
    let c = Serve.Client.connect addr in
    Serve.Client.send c (String.concat "\n" (List.init 20 (fun _ -> q)));
    let first = Option.to_list (Serve.Client.recv c) in
    Serve.Server.stop server;
    let rs = first @ Serve.Client.recv_all c in
    Serve.Client.close c;
    rs
  in
  Alcotest.(check (list (option string))) "twenty tables, then EOF"
    (List.init 20 (fun _ -> Some oracle))
    (List.map Serve.Client.table_csv replies)

(* --- the chaos sweep -------------------------------------------------- *)

let chaos_sessions = 3
let chaos_requests = 8

(* One session's faults, a pure function of (seed, session). A faulty
   session sends some lines 25 ms late, garbles others, and may end
   badly: a stall sends 6 of its 8 lines, keeps the socket open and
   reads only the 6 replies it is owed; a hang-up closes after 4
   replies. *)
type chaos = {
  late : bool array;
  garbled : bool array;
  cut : [ `None | `Stall | `Hang_up ];
  rng : Random.State.t;  (* the garbage bytes *)
}

let chaos_plan seed session =
  let rng = Random.State.make [| seed; session |] in
  let faulty = Random.State.float rng 1.0 < 0.7 in
  let draws p =
    Array.init chaos_requests (fun _ ->
        faulty && Random.State.float rng 1.0 < p)
  in
  let late = draws 0.3 in
  let garbled = draws 0.15 in
  let cut =
    match (faulty, Random.State.int rng 3) with
    | false, _ | _, 0 -> `None
    | _, 1 -> `Stall
    | _ -> `Hang_up
  in
  { late; garbled; cut; rng }

let owed p =
  match p.cut with `None -> chaos_requests | `Stall -> 6 | `Hang_up -> 4

(* seeded bytes behind a control byte: input the SQL lexer refuses *)
let garble rng line =
  "\x01" ^ String.init 6 (fun _ -> Char.chr (0x21 + Random.State.int rng 0x5e))
  ^ line

let run_chaos_seed ~oracle seed =
  let plans = Array.init chaos_sessions (chaos_plan seed) in
  with_server @@ fun _server _service addr ->
  let clients =
    Array.init chaos_sessions (fun _ ->
        Serve.Client.connect ~timeout_s:30.0 addr)
  in
  (* (line, query) of each line sent intact; garbled lines are absent *)
  let sent = Array.make chaos_sessions [] in
  for r = 0 to chaos_requests - 1 do
    Array.iteri
      (fun i c ->
        let p = plans.(i) and qi = (r + (i * 2)) mod Array.length queries in
        if r < 6 || p.cut <> `Stall then begin
          if p.late.(r) then Unix.sleepf 0.025;
          if p.garbled.(r) then Serve.Client.send c (garble p.rng queries.(qi))
          else begin
            sent.(i) <- (r + 1, qi) :: sent.(i);
            Serve.Client.send c queries.(qi)
          end
        end)
      clients
  done;
  Array.iteri
    (fun i c -> if plans.(i).cut = `None then Serve.Client.shutdown_send c)
    clients;
  let replies =
    Array.mapi
      (fun i c ->
        (* a well-behaved stream must end in EOF; a hang (Timeout) or an
           unparseable line (Protocol_error) fails the sweep *)
        let p = plans.(i) in
        let rs =
          try
            if p.cut = `None then Serve.Client.recv_all c
            else
              List.filter_map Fun.id
                (List.init (owed p) (fun _ -> Serve.Client.recv c))
          with
          | Serve.Client.Timeout ->
              Alcotest.failf "seed %d: session %d hung" seed i
          | Serve.Client.Protocol_error m ->
              Alcotest.failf "seed %d: session %d unstructured: %s" seed i m
        in
        Serve.Client.close c;
        Alcotest.(check int)
          (Printf.sprintf "seed %d session %d: one reply per line owed" seed i)
          (owed p) (List.length rs);
        (* an intact line answers with the oracle's bytes, a garbled one
           never with a table *)
        List.iter
          (fun (r : Serve.Client.reply) ->
            check_structured r;
            let line = r.Serve.Client.line in
            Alcotest.(check (option string))
              (Printf.sprintf "seed %d session %d line %d" seed i line)
              (Option.map (Array.get oracle) (List.assoc_opt line sent.(i)))
              (Serve.Client.table_csv r))
          rs;
        List.length rs)
      clients
  in
  (* and the server goes on serving a fresh session *)
  Alcotest.(check (list (option string))) "a fresh session is served"
    [ Some oracle.(5) ]
    (List.map Serve.Client.table_csv (exchange addr [ queries.(5) ]));
  (plans, Array.fold_left ( + ) 0 replies)

let test_chaos_sweep () =
  let oracle = oracle_csv () in
  let runs = List.init 25 (run_chaos_seed ~oracle) in
  let plans = List.concat_map (fun (ps, _) -> Array.to_list ps) runs in
  let fired f = List.exists f plans in
  (* the sweep exercised every fault and still answered *)
  Alcotest.(check (list bool)) "late, garbled, stall, hang-up all fired"
    [ true; true; true; true ]
    [ fired (fun p -> Array.mem true p.late);
      fired (fun p -> Array.mem true p.garbled);
      fired (fun p -> p.cut = `Stall); fired (fun p -> p.cut = `Hang_up) ];
  Alcotest.(check bool) "plenty of structured replies" true
    (List.fold_left (fun n (_, k) -> n + k) 0 runs > 100)

let () =
  Alcotest.run "server"
    [ ( "framing",
        [ Alcotest.test_case "two concurrent sessions" `Quick
            test_two_sessions;
          Alcotest.test_case "stats + refused directives" `Quick
            test_stats_directive;
          Alcotest.test_case "an unterminated last line is answered" `Quick
            test_unterminated_line;
          Alcotest.test_case "an execution error rejects one request" `Quick
            test_exec_error_pipelined;
          Alcotest.test_case "an out-of-range literal is a parse error" `Quick
            test_out_of_range_literal;
          Alcotest.test_case "10000 unknown columns refused, none interned" `Quick
            test_unknown_columns_not_interned ] );
      ( "protocol",
        [ Alcotest.test_case "a socket answers in line order" `Quick
            test_socket_line_order;
          Alcotest.test_case "stdin and socket replies agree" `Quick
            test_transports_agree;
          test_fuzz ] );
      ( "isolation",
        [ Alcotest.test_case "faulty neighbours leave no trace" `Quick
            test_session_isolation;
          Alcotest.test_case "two tenants, four sessions, oracle bytes" `Quick
            test_tenants_over_sockets ] );
      ( "overload",
        [ Alcotest.test_case "backlog full sheds structurally" `Quick
            test_shed_structured;
          Alcotest.test_case "session limit refuses the 65th" `Quick
            test_session_limit;
          Alcotest.test_case "deadline refused at admission" `Quick
            test_deadline_at_admission;
          Alcotest.test_case "deadline between plan and exec" `Quick
            test_deadline_between_plan_and_exec ] );
      ( "shutdown",
        [ Alcotest.test_case "stop drains the backlog" `Quick
            test_shutdown_drains ] );
      ( "netfaults",
        [ Alcotest.test_case "25-seed chaos sweep" `Slow test_chaos_sweep ] ) ]
