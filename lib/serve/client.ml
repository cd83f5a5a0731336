exception Timeout
exception Protocol_error of string

(* Received bytes not yet returned are [buf] from [start] to [stop];
   none of them before [scanned] is a newline. *)
type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable scanned : int;
  mutable stop : int;
  timeout_s : float;
  mutable eof : bool;
}

let of_fd ?(timeout_s = 10.0) fd =
  { fd; buf = Bytes.create 4096; start = 0; scanned = 0; stop = 0; timeout_s;
    eof = false }

let connect ?timeout_s addr =
  let sa =
    match addr with
    | Server.Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    | Server.Unix_path path -> Unix.ADDR_UNIX path
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa with e -> Unix.close fd; raise e);
  of_fd ?timeout_s fd

let send t line =
  let data = line ^ "\n" in
  let len = String.length data in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring t.fd data !off (len - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let shutdown_send t =
  try Unix.shutdown t.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

type reply = { line : int; tag : string; info : string; body : string list }

(* the unread bytes from [start] to [i], exclusive, consumed up to
   [next] *)
let take t i next =
  let line = Bytes.sub_string t.buf t.start (i - t.start) in
  t.start <- next;
  t.scanned <- next;
  line

(* room to read into: unread bytes move to the front, and the buffer
   doubles only when they fill it *)
let make_room t =
  if t.stop = Bytes.length t.buf then begin
    let unread = t.stop - t.start in
    let dst =
      if unread < Bytes.length t.buf then t.buf
      else Bytes.create (2 * Bytes.length t.buf)
    in
    Bytes.blit t.buf t.start dst 0 unread;
    t.buf <- dst;
    t.scanned <- t.scanned - t.start;
    t.start <- 0;
    t.stop <- unread
  end

(* one buffered line, bounded by [deadline]; [None] on EOF *)
let rec read_line t deadline =
  match Bytes.index_from_opt t.buf t.scanned '\n' with
  | Some i when i < t.stop -> Some (take t i (i + 1))
  | _ ->
      t.scanned <- t.stop;
      if t.eof then
        if t.start = t.stop then None else Some (take t t.stop t.stop)
      else begin
        let now = Unix.gettimeofday () in
        if now >= deadline then raise Timeout;
        (match
           Unix.select [ t.fd ] [] [] (Float.min 0.25 (deadline -. now))
         with
        | [], _, _ -> ()
        | _ -> (
            make_room t;
            match
              Unix.read t.fd t.buf t.stop (Bytes.length t.buf - t.stop)
            with
            | 0 -> t.eof <- true
            | k -> t.stop <- t.stop + k
            | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _)
              ->
                ()
            | exception Unix.Unix_error _ -> t.eof <- true)
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        read_line t deadline
      end

(* "-- [N] tag: info" -> (N, tag, info); a tag without ": " has no info *)
let parse_status line =
  let parts n tag rest =
    (* [rest] is empty, or ':' and the info *)
    let k = String.length rest in
    let info = if k = 0 then "" else String.sub rest 1 (k - 1) in
    (n, String.trim tag, String.trim info)
  in
  try Scanf.sscanf line "-- [%d] %[^:]%[^\n]" parts
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    raise (Protocol_error (Printf.sprintf "unparseable status line %S" line))

(* "plan 0.12 ms, exec 0.05 ms, 3 rows" -> 3 *)
let rows_of_info info =
  let rows _ _ r = r in
  try Some (Scanf.sscanf info "plan %f ms, exec %f ms, %d rows%!" rows)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let recv t =
  let deadline = Unix.gettimeofday () +. t.timeout_s in
  match read_line t deadline with
  | None -> None
  | Some status ->
      let n, tag, info = parse_status status in
      let body =
        if tag = "hit" || tag = "miss" then
          match rows_of_info info with
          | None ->
              raise (Protocol_error ("no row count in status: " ^ status))
          | Some rows ->
              List.init (rows + 1) (fun _ ->
                  match read_line t deadline with
                  | Some l -> l
                  | None -> raise (Protocol_error "EOF inside a table"))
        else []
      in
      Some { line = n; tag; info; body }

let recv_all t =
  let rec go acc =
    match recv t with None -> List.rev acc | Some r -> go (r :: acc)
  in
  go []

let table_csv r =
  match r.body with
  | [] -> None
  | body -> Some (String.concat "\n" body ^ "\n")
