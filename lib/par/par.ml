type pool = {
  jobs : int;
  name : string;
  mutex : Mutex.t;
  cond : Condition.t; (* signaled on submission, task completion, shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

(* Which pool slot this domain occupies: workers are 1..jobs-1, the
   submitting domain is 0. Only used to label observability spans. *)
let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let worker pool slot () =
  Domain.DLS.set slot_key slot;
  Mutex.lock pool.mutex;
  let rec loop () =
    match Queue.take_opt pool.queue with
    | Some task ->
        Mutex.unlock pool.mutex;
        task ();
        Mutex.lock pool.mutex;
        loop ()
    | None ->
        if pool.live then begin
          Condition.wait pool.cond pool.mutex;
          loop ()
        end
  in
  loop ();
  Mutex.unlock pool.mutex

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.live <- false;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let create ?(name = "pool") jobs =
  let pool =
    { jobs;
      name;
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [] }
  in
  (* one at a time, so that when the runtime refuses a domain the ones
     already running can be joined rather than leaked *)
  (try
     for slot = 1 to jobs - 1 do
       pool.workers <- Domain.spawn (worker pool slot) :: pool.workers
     done
   with Failure _ ->
     shutdown pool;
     invalid_arg (Printf.sprintf "Par.create: cannot start %d domains" jobs));
  pool

let size pool = pool.jobs

let with_pool ?name jobs f =
  if jobs <= 1 then f None
  else
    let pool = create ?name jobs in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f (Some pool))

let run_all pool thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ]
  | _ when pool.jobs <= 1 -> List.map (fun f -> f ()) thunks
  | _ ->
      let thunks = Array.of_list thunks in
      let n = Array.length thunks in
      let observing = Obs.enabled () in
      let bufs =
        if observing then Array.init n (fun _ -> Obs.create_buffer ())
        else [||]
      in
      let results = Array.make n None in
      let remaining = ref n (* protected by pool.mutex *) in
      let wrap i =
        let f = thunks.(i) in
        let body () =
          if observing then
            Obs.in_buffer bufs.(i) (fun () ->
                Obs.with_span
                  (Printf.sprintf "par.d%d" (Domain.DLS.get slot_key))
                  (fun () ->
                    Obs.incr (pool.name ^ ".tasks");
                    f ()))
          else f ()
        in
        fun () ->
          let r =
            try Ok (body ())
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock pool.mutex;
          results.(i) <- Some r;
          decr remaining;
          Condition.broadcast pool.cond;
          Mutex.unlock pool.mutex
      in
      if observing then Obs.incr (pool.name ^ ".batches");
      Mutex.lock pool.mutex;
      for i = 0 to n - 1 do
        Queue.push (wrap i) pool.queue
      done;
      Condition.broadcast pool.cond;
      (* help-first join: run queued tasks (ours or anyone's) while the
         batch is outstanding, sleeping only when the queue is empty *)
      let rec help () =
        if !remaining > 0 then
          match Queue.take_opt pool.queue with
          | Some task ->
              Mutex.unlock pool.mutex;
              task ();
              Mutex.lock pool.mutex;
              help ()
          | None ->
              Condition.wait pool.cond pool.mutex;
              help ()
      in
      help ();
      Mutex.unlock pool.mutex;
      if observing then Array.iter Obs.merge_buffer bufs;
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
             | None -> assert false)
           results)
