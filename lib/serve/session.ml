(** Live session (see the interface).  Concurrency design:

    - every shard is a monitor: its mutex guards the queue, the
      lifecycle stage and the engine state, with [not_full] /
      [not_empty] condition variables for backpressure and drain;
    - tickets are tiny monitors of their own, signalled exactly once;
      a shard mutex may be held while signalling a ticket, never the
      reverse, so the lock graph is acyclic;
    - the session-level mutex only serialises lifecycle transitions
      ([close] / [shutdown_now]) and is never held across a shard
      lock acquisition that could block on engine work. *)

open Ccache_trace
module Engine = Ccache_sim.Engine
module Policy = Ccache_sim.Policy

exception Closed
exception Cancelled

type outcome = Hit | Miss

type tk_state = Pending | Done of outcome | Discarded

type ticket = {
  tk_mu : Mutex.t;
  tk_cond : Condition.t;
  mutable tk_state : tk_state;
}

type stage = Open | Drain | Abort

type shard_rt = {
  engine : Engine.Step.t;  (** built over an empty trace, driven by [feed] *)
  last : outcome ref;  (** written by the engine's [on_event] in [feed] *)
  mu : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  queue : (Page.t * ticket) Queue.t;
  mutable st : stage;
  mutable sh_waiters : int;
}

type t = {
  shards : shard_rt array;
  router : Router.t;
  batch : int;
  queue_cap : int;
  use_workers : bool;
  mutable workers : unit Domain.t list;
  t_mu : Mutex.t;
  mutable live : bool;
}

(* Requires [s.mu]; processes up to [batch] requests FIFO and wakes
   blocked submitters. *)
let process_locked s batch =
  let n = min batch (Queue.length s.queue) in
  for _ = 1 to n do
    let page, tk = Queue.pop s.queue in
    Engine.Step.feed s.engine page;
    let oc = !(s.last) in
    Mutex.lock tk.tk_mu;
    tk.tk_state <- Done oc;
    Condition.broadcast tk.tk_cond;
    Mutex.unlock tk.tk_mu
  done;
  if n > 0 then Condition.broadcast s.not_full;
  n

let worker_loop s batch =
  Mutex.lock s.mu;
  let rec loop () =
    match s.st with
    | Abort -> ()
    | Drain when Queue.is_empty s.queue -> ()
    | _ ->
        if Queue.is_empty s.queue then begin
          Condition.wait s.not_empty s.mu;
          loop ()
        end
        else begin
          ignore (process_locked s batch);
          loop ()
        end
  in
  loop ();
  Mutex.unlock s.mu

let create ?(policy = Ccache_core.Alg_fast.policy) ?(workers = false) ~router
    ~shard_k ~batch ~queue_cap ~costs () =
  if shard_k <= 0 then invalid_arg "Session.create: shard_k must be positive";
  if batch <= 0 then invalid_arg "Session.create: batch must be positive";
  if queue_cap <= 0 then
    invalid_arg "Session.create: queue_cap must be positive";
  if Array.length costs = 0 then
    invalid_arg "Session.create: costs must be non-empty";
  if Policy.needs_future policy then
    invalid_arg
      (Printf.sprintf "Session.create: offline policy %s cannot serve"
         (Policy.name policy));
  let empty = Trace.of_pages ~n_users:(Array.length costs) [||] in
  let shards =
    Array.init (Router.shards router) (fun _ ->
        let last = ref Hit in
        let on_event = function
          | Engine.Hit _ -> last := Hit
          | Engine.Miss_insert _ | Engine.Miss_evict _ -> last := Miss
        in
        {
          engine = Engine.Step.init ~on_event ~k:shard_k ~costs policy empty;
          last;
          mu = Mutex.create ();
          not_full = Condition.create ();
          not_empty = Condition.create ();
          queue = Queue.create ();
          st = Open;
          sh_waiters = 0;
        })
  in
  let t =
    {
      shards;
      router;
      batch;
      queue_cap;
      use_workers = workers;
      workers = [];
      t_mu = Mutex.create ();
      live = true;
    }
  in
  if workers then
    t.workers <-
      Array.to_list
        (Array.map (fun s -> Domain.spawn (fun () -> worker_loop s batch)) shards);
  t

let new_ticket () =
  { tk_mu = Mutex.create (); tk_cond = Condition.create (); tk_state = Pending }

let submit t page =
  let s = t.shards.(Router.route t.router page) in
  let tk = new_ticket () in
  Mutex.lock s.mu;
  let rec wait_space () =
    if s.st <> Open then begin
      Mutex.unlock s.mu;
      raise Closed
    end
    else if Queue.length s.queue >= t.queue_cap then begin
      s.sh_waiters <- s.sh_waiters + 1;
      Condition.wait s.not_full s.mu;
      s.sh_waiters <- s.sh_waiters - 1;
      wait_space ()
    end
  in
  wait_space ();
  Queue.push (page, tk) s.queue;
  Condition.signal s.not_empty;
  Mutex.unlock s.mu;
  tk

let try_submit t page =
  let s = t.shards.(Router.route t.router page) in
  Mutex.lock s.mu;
  if s.st <> Open then begin
    Mutex.unlock s.mu;
    raise Closed
  end
  else if Queue.length s.queue >= t.queue_cap then begin
    Mutex.unlock s.mu;
    Error `Overloaded
  end
  else begin
    let tk = new_ticket () in
    Queue.push (page, tk) s.queue;
    Condition.signal s.not_empty;
    Mutex.unlock s.mu;
    Ok tk
  end

let wait tk =
  Mutex.lock tk.tk_mu;
  while tk.tk_state = Pending do
    Condition.wait tk.tk_cond tk.tk_mu
  done;
  let st = tk.tk_state in
  Mutex.unlock tk.tk_mu;
  match st with
  | Done oc -> oc
  | Discarded -> raise Cancelled
  | Pending -> assert false

let poll tk =
  Mutex.lock tk.tk_mu;
  let st = tk.tk_state in
  Mutex.unlock tk.tk_mu;
  match st with
  | Pending -> None
  | Done oc -> Some oc
  | Discarded -> raise Cancelled

let drain t ~shard =
  if t.use_workers then
    invalid_arg "Session.drain: session drains through worker domains";
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Session.drain: no such shard";
  let s = t.shards.(shard) in
  Mutex.lock s.mu;
  if s.st <> Open then begin
    Mutex.unlock s.mu;
    raise Closed
  end;
  let n = process_locked s t.batch in
  Mutex.unlock s.mu;
  n

let drain_all t =
  let total = ref 0 in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    Array.iteri
      (fun i _ ->
        let n = drain t ~shard:i in
        if n > 0 then begin
          total := !total + n;
          progressed := true
        end)
      t.shards
  done;
  !total

let sum_over_shards t f =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.mu;
      let v = f s in
      Mutex.unlock s.mu;
      acc + v)
    0 t.shards

let pending t = sum_over_shards t (fun s -> Queue.length s.queue)
let waiters t = sum_over_shards t (fun s -> s.sh_waiters)
let served t = sum_over_shards t (fun s -> Engine.Step.served s.engine)

(* Lifecycle.  [begin_transition] consumes the single Live token; only
   the caller that wins it may join workers and finish engines. *)
let begin_transition t =
  Mutex.lock t.t_mu;
  let was_live = t.live in
  t.live <- false;
  Mutex.unlock t.t_mu;
  was_live

let wake_all s =
  Condition.broadcast s.not_empty;
  Condition.broadcast s.not_full

let close t =
  if not (begin_transition t) then raise Closed;
  Array.iter
    (fun s ->
      Mutex.lock s.mu;
      s.st <- Drain;
      wake_all s;
      Mutex.unlock s.mu)
    t.shards;
  List.iter Domain.join t.workers;
  if not t.use_workers then
    Array.iter
      (fun s ->
        Mutex.lock s.mu;
        while not (Queue.is_empty s.queue) do
          ignore (process_locked s t.batch)
        done;
        Mutex.unlock s.mu)
      t.shards;
  Array.map
    (fun s ->
      Mutex.lock s.mu;
      let r = Engine.Step.finish s.engine in
      Mutex.unlock s.mu;
      r)
    t.shards

let shutdown_now t =
  if begin_transition t then begin
    Array.iter
      (fun s ->
        Mutex.lock s.mu;
        s.st <- Abort;
        while not (Queue.is_empty s.queue) do
          let _page, tk = Queue.pop s.queue in
          Mutex.lock tk.tk_mu;
          tk.tk_state <- Discarded;
          Condition.broadcast tk.tk_cond;
          Mutex.unlock tk.tk_mu
        done;
        wake_all s;
        Mutex.unlock s.mu)
      t.shards;
    List.iter Domain.join t.workers
  end
