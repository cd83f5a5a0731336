module C = Mpq_crypto

type fault =
  | Crash_at of int
  | Transient of float
  | Corrupt of float
  | Slow of { delay_ms : int; prob : float }

type spec = (string * fault) list

exception Bad_spec of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_spec m)) fmt

let split_entries s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ';')
  |> List.filter_map (fun entry ->
         let entry = String.trim entry in
         if entry = "" then None else Some entry)

let parse_prob what s =
  match float_of_string_opt s with
  | Some p when p >= 0.0 && p <= 1.0 -> p
  | _ -> bad "%s wants a probability in [0,1], got %S" what s

let parse_nonneg_int what s =
  match int_of_string_opt s with
  | Some k when k >= 0 -> k
  | _ -> bad "%s wants a non-negative integer, got %S" what s

(* [KEY:FAULT] entries: split at the first [:], reject empty keys, and
   hand the fault body (plus the whole entry, for diagnostics) to
   [parse_fault]. *)
let parse_keyed ~what parse_fault spec =
  split_entries spec
  |> List.map (fun entry ->
         match String.index_opt entry ':' with
         | None -> bad "entry %S is not %s" entry what
         | Some i ->
             let key = String.trim (String.sub entry 0 i) in
             let body =
               String.trim (String.sub entry (i + 1) (String.length entry - i - 1))
             in
             if key = "" then bad "entry %S names no subject" entry;
             (key, parse_fault ~entry body))

(* Consumes randomness even when [p <= 0], so schedules stay aligned
   across spec variations. *)
let draw rng p =
  let u = C.Prng.float rng 1.0 in
  p > 0.0 && u < p

let parse_fault ~entry body =
  match String.index_opt body '@' with
  | _ when String.length body = 0 -> bad "empty fault in %S" entry
  | Some _ when String.length body > 6 && String.sub body 0 6 = "crash@" ->
      Crash_at
        (parse_nonneg_int "crash@K"
           (String.sub body 6 (String.length body - 6)))
  | _ -> (
      match String.index_opt body '=' with
      | None -> bad "fault %S is not crash@K, transient=P, corrupt=P or slow=MS[@P]" body
      | Some i -> (
          let kind = String.sub body 0 i in
          let arg = String.sub body (i + 1) (String.length body - i - 1) in
          match kind with
          | "transient" -> Transient (parse_prob "transient" arg)
          | "corrupt" -> Corrupt (parse_prob "corrupt" arg)
          | "slow" ->
              let ms, prob =
                match String.index_opt arg '@' with
                | None -> (arg, "1.0")
                | Some j ->
                    ( String.sub arg 0 j,
                      String.sub arg (j + 1) (String.length arg - j - 1) )
              in
              Slow
                { delay_ms = parse_nonneg_int "slow=MS" ms;
                  prob = parse_prob "slow" prob }
          | k -> bad "unknown fault kind %S in %S" k entry))

let parse s = parse_keyed ~what:"SUBJECT:FAULT" parse_fault s

let render_fault = function
  | Crash_at k -> Printf.sprintf "crash@%d" k
  | Transient p -> Printf.sprintf "transient=%g" p
  | Corrupt p -> Printf.sprintf "corrupt=%g" p
  | Slow { delay_ms; prob } ->
      if prob >= 1.0 then Printf.sprintf "slow=%d" delay_ms
      else Printf.sprintf "slow=%d@%g" delay_ms prob

let render spec =
  String.concat ","
    (List.map (fun (s, f) -> Printf.sprintf "%s:%s" s (render_fault f)) spec)

type t = {
  spec : spec;
  rng : C.Prng.t;
  mutable clock_ms : int;
  mutable steps : int;
}

(* fault-free latency of one interaction on the simulated clock *)
let base_latency_ms = 5

let make ?(seed = 1) spec =
  { spec;
    rng = C.Prng.create (Int64.of_int seed);
    clock_ms = 0;
    steps = 0 }

let none () = make []
let clock_ms t = t.clock_ms
let advance t ms = t.clock_ms <- t.clock_ms + max 0 ms
let step t = t.steps
let jitter t bound = if bound <= 0 then 0 else C.Prng.int t.rng bound

type verdict =
  | Delivered
  | Dropped of string
  | Corrupted of string
  | No_response of string

type disposition = {
  verdict : verdict;
  latency_ms : int;
  slow_by : string option;
}

let faults_of t s =
  List.filter_map (fun (n, f) -> if n = s then Some f else None) t.spec

let crashed t s =
  List.exists (function Crash_at k -> t.steps >= k | _ -> false) (faults_of t s)

let interact t participants =
  t.steps <- t.steps + 1;
  match List.find_opt (crashed t) participants with
  | Some s -> { verdict = No_response s; latency_ms = 0; slow_by = None }
  | None ->
      let latency = ref base_latency_ms in
      let slow_by = ref None in
      let dropped = ref None and corrupted = ref None in
      (* draw every probabilistic fault of every participant, in spec
         order, whether or not an earlier one already fired: the draw
         sequence then depends only on (spec, call sequence), keeping
         runs reproducible. *)
      List.iter
        (fun s ->
          List.iter
            (fun f ->
              match f with
              | Crash_at _ -> ()
              | Transient p ->
                  if draw t.rng p && !dropped = None then dropped := Some s
              | Corrupt p ->
                  if draw t.rng p && !corrupted = None then
                    corrupted := Some s
              | Slow { delay_ms; prob } ->
                  if draw t.rng prob then begin
                    latency := !latency + delay_ms;
                    slow_by := Some s
                  end)
            (faults_of t s))
        participants;
      let verdict =
        match (!dropped, !corrupted) with
        | Some s, _ -> Dropped s
        | None, Some s -> Corrupted s
        | None, None -> Delivered
      in
      { verdict; latency_ms = !latency; slow_by = !slow_by }
