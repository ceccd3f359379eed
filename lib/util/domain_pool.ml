(** Fixed-size worker pool over OCaml 5 domains (see the .mli for the
    determinism contract).

    One mutex + condition guards the task queue; each future carries
    its own mutex + condition so awaiters never contend with the queue.
    Workers drain the queue even after [shutdown] is requested, which
    is what makes shutdown graceful rather than abortive; [shutdown_now]
    instead cancels queued entries (each queue item carries a [cancel]
    callback that fails its future with [Pool_shutdown]) so awaiters
    raise rather than hang. *)

exception Pool_shutdown

type task = { run : unit -> unit; cancel : unit -> unit }

type t = {
  lock : Mutex.t;  (** guards [queue], [stop] *)
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable spawned : bool;  (** workers are created on first [submit] *)
  size : int;
  hw : int;  (** hardware parallelism observed at [create] *)
  busy : int Atomic.t;  (** workers currently inside [task.run] (obs only) *)
}

(* Worker-occupancy buckets: pool sizes are clamped to [max_size]. *)
let occupancy_bounds = [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  flock : Mutex.t;
  fcond : Condition.t;
  mutable state : 'a state;
}

(* The OCaml runtime degrades past ~128 domains; 64 workers (plus the
   submitting domain) is already beyond any machine we target. *)
let max_size = 64

let clamp_size n = Stdlib.min max_size (Stdlib.max 1 n)

let default_size () =
  let from_env =
    match Sys.getenv_opt "CCACHE_JOBS" with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | _ -> None)
  in
  match from_env with
  | Some n -> clamp_size n
  | None -> clamp_size (Domain.recommended_domain_count ())

let size t = t.size

(* Workers the machine can actually run at once.  A pool wider than the
   hardware still *works*, but on OCaml 5 every allocating domain joins
   each minor-GC stop-the-world barrier: two domains time-slicing one
   core spend more time fencing each other than computing (measured 3x
   slower than serial on a 1-core host).  [parallel_map] therefore runs
   on the submitting domain whenever the pool cannot give a task a core
   of its own. *)
let effective_parallelism t = Stdlib.min t.size t.hw

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.nonempty t.lock
  done;
  if Queue.is_empty t.queue then (* stop requested and queue drained *)
    Mutex.unlock t.lock
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.lock;
    (* Guarded so the disabled path costs one atomic load; [obs] is
       latched across [run] so the busy counter stays balanced even if
       recording is toggled mid-task. *)
    let obs = Ccache_obs.Control.enabled () in
    if obs then begin
      let busy = 1 + Atomic.fetch_and_add t.busy 1 in
      Ccache_obs.Metrics.observe ~bounds:occupancy_bounds "pool/occupancy"
        (float_of_int busy);
      Ccache_obs.Metrics.incr "pool/tasks_run"
    end;
    task.run ();
    if obs then Atomic.decr t.busy;
    worker_loop t
  end

let create ?size () =
  let size =
    match size with Some n -> clamp_size n | None -> default_size ()
  in
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
      spawned = false;
      size;
      hw = Domain.recommended_domain_count ();
      busy = Atomic.make 0;
    }
  in
  t

(* Deferred to first [submit] (with [t.lock] held): an idle domain is
   not free — it joins every stop-the-world minor-GC barrier, and a
   pool whose maps all take the serial-fallback path was measured to
   slow the submitting domain ~5x just by existing.  A pool that never
   receives a task never spawns a domain. *)
let spawn_workers t =
  if not t.spawned then begin
    t.spawned <- true;
    t.workers <-
      List.init t.size (fun _ -> Domain.spawn (fun () -> worker_loop t))
  end

let resolve fut result =
  Mutex.lock fut.flock;
  fut.state <- result;
  Condition.broadcast fut.fcond;
  Mutex.unlock fut.flock

let submit t f =
  let fut =
    { flock = Mutex.create (); fcond = Condition.create (); state = Pending }
  in
  let run () =
    let result =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    resolve fut result
  in
  let cancel () = resolve fut (Failed (Pool_shutdown, Printexc.get_callstack 0)) in
  Mutex.lock t.lock;
  if t.stop then begin
    Mutex.unlock t.lock;
    invalid_arg "Domain_pool.submit: pool is shut down"
  end;
  spawn_workers t;
  Queue.push { run; cancel } t.queue;
  if Ccache_obs.Control.enabled () then begin
    Ccache_obs.Metrics.incr "pool/submitted";
    Ccache_obs.Metrics.set_gauge "pool/queue_depth"
      (float_of_int (Queue.length t.queue))
  end;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock;
  fut

let await fut =
  Mutex.lock fut.flock;
  while (match fut.state with Pending -> true | _ -> false) do
    Condition.wait fut.fcond fut.flock
  done;
  let state = fut.state in
  Mutex.unlock fut.flock;
  match state with
  | Pending -> assert false
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt

(* Await as a result, so a map can drain every future (letting all
   tasks finish) before deciding whether to re-raise. *)
let await_result fut =
  match await fut with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())

(* Run every element (a failure does not stop later elements, matching
   the pooled path, where every submitted task runs) and re-raise the
   first error in input order. *)
let first_error_or_values results =
  List.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    results

let serial_map ~f xs =
  first_error_or_values
    (List.map
       (fun x ->
         match f x with
         | v -> Ok v
         | exception e -> Error (e, Printexc.get_raw_backtrace ()))
       xs)

let parallel_map t ~f xs =
  if effective_parallelism t <= 1 then serial_map ~f xs
  else
    let futs = List.map (fun x -> submit t (fun () -> f x)) xs in
    first_error_or_values (List.map await_result futs)

(* Both shutdown flavours are idempotent and may be mixed: whoever
   observes [stop] already set returns without touching the (already
   empty or already cancelled) queue, and [workers = []] makes the
   join a no-op. *)
let shutdown_with ~drain t =
  Mutex.lock t.lock;
  if t.stop then Mutex.unlock t.lock
  else begin
    t.stop <- true;
    let cancelled =
      if drain then []
      else begin
        (* abortive: queued tasks never run; fail their futures so
           awaiters raise Pool_shutdown instead of hanging forever *)
        let cs = Queue.fold (fun acc task -> task.cancel :: acc) [] t.queue in
        Queue.clear t.queue;
        cs
      end
    in
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    List.iter (fun cancel -> cancel ()) cancelled;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let shutdown t = shutdown_with ~drain:true t
let shutdown_now t = shutdown_with ~drain:false t

let with_pool ?size f =
  let t = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_list ?pool ~f xs =
  (* One pool task per element, counted on every path, so the counter
     agrees between --jobs 1 and --jobs N runs of the same sweep (its
     key is pinned by test/suite_golden). *)
  if Ccache_obs.Control.enabled () then
    Ccache_obs.Metrics.incr ~by:(List.length xs) "pool/map_blocks";
  match pool with
  | None -> List.map f xs
  | Some t -> parallel_map t ~f xs
