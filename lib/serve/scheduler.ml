(** Logical-clock admission scheduler (see the interface for the round
    semantics).  Everything here is plain bookkeeping over flat int
    arrays; the engines never run under this module, so the schedule
    cannot depend on cache contents.

    Layout.  Every request is routed once, up front, which also yields
    each shard's routed count.  A shard's output arrays ([pages],
    [waits]) are presized to that count and double as its FIFO queue:
    admission appends at [tail], the drain advances [head], so the
    queue is the window [\[head, tail)] — drain order is admission
    order — and [queue_cap] bounds the window without sizing any
    allocation.  While a request is queued its [waits] slot holds the
    submit round; the drain rewrites it to the wait. *)

open Ccache_trace

type overload = Block | Reject

let overload_name = function Block -> "block" | Reject -> "reject"

type config = {
  router : Router.t;
  batch : int;
  queue_cap : int;
  overload : overload;
  client_rate : int;
}

let config ?(overload = Block) ?(client_rate = 1) ~router ~batch ~queue_cap () =
  if batch <= 0 then invalid_arg "Scheduler.config: batch must be positive";
  if queue_cap <= 0 then
    invalid_arg "Scheduler.config: queue_cap must be positive";
  if client_rate <= 0 then
    invalid_arg "Scheduler.config: client_rate must be positive";
  { router; batch; queue_cap; overload; client_rate }

type shard_schedule = {
  shard : int;
  pages : Page.t array;
  batches : (int * int) array;
  waits : int array;
  rejected : int;
  max_depth : int;
  depth_sum : int;
}

type t = {
  config : config;
  rounds : int;
  shards : shard_schedule array;
  admitted : int;
  rejected : int;
  stalls : int;
}

(* Mutable per-shard state during the simulation. *)
type shard_state = {
  q_pages : Page.t array;  (* admitted requests, admission = drain order *)
  q_waits : int array;  (* submit round while queued, wait once drained *)
  mutable head : int;  (* first queued slot *)
  mutable tail : int;  (* next admission slot = admitted so far *)
  mutable log : int array;  (* batch log, flattened [round; count; ...] *)
  mutable logged : int;  (* batches in [log] *)
  mutable s_rejected : int;
  mutable s_max_depth : int;
  mutable s_depth_sum : int;
}

let log_batch s ~round ~count =
  let i = 2 * s.logged in
  if i = Array.length s.log then begin
    let bigger = Array.make (2 * i) 0 in
    Array.blit s.log 0 bigger 0 i;
    s.log <- bigger
  end;
  s.log.(i) <- round;
  s.log.(i + 1) <- count;
  s.logged <- s.logged + 1

let finish_shard i s =
  let trim a = if s.tail = Array.length a then a else Array.sub a 0 s.tail in
  {
    shard = i;
    pages = trim s.q_pages;
    batches =
      Array.init s.logged (fun b -> (s.log.(2 * b), s.log.((2 * b) + 1)));
    waits = trim s.q_waits;
    rejected = s.s_rejected;
    max_depth = s.s_max_depth;
    depth_sum = s.s_depth_sum;
  }

let build config ~clients =
  let { router; batch; queue_cap; overload; client_rate } = config in
  let n_shards = Router.shards router in
  let routed = Array.make n_shards 0 in
  let routes =
    Array.map
      (Array.map (fun page ->
           let s = Router.route router page in
           routed.(s) <- routed.(s) + 1;
           s))
      clients
  in
  let shards =
    Array.map
      (fun n ->
        {
          q_pages = Array.make n (Page.unpack 0);
          q_waits = Array.make n 0;
          head = 0;
          tail = 0;
          (* a round drains at most [batch], so a shard that admits
             all [n] logs at least [n / batch] batches *)
          log = Array.make (2 * ((n / batch) + 1)) 0;
          logged = 0;
          s_rejected = 0;
          s_max_depth = 0;
          s_depth_sum = 0;
        })
      routed
  in
  let n_clients = Array.length clients in
  let cursors = Array.make n_clients 0 in
  let active =
    ref
      (Array.fold_left
         (fun a stream -> if Array.length stream > 0 then a + 1 else a)
         0 clients)
  in
  let queued = ref 0 in
  let stalls = ref 0 in
  let round = ref 0 in
  while !active > 0 || !queued > 0 do
    (* admission phase: clients in id order, up to [client_rate] each *)
    for c = 0 to n_clients - 1 do
      let stream = clients.(c) and route = routes.(c) in
      let len = Array.length stream in
      let start = cursors.(c) in
      let pos = ref start in
      let stop =
        ref (if client_rate >= len - start then len else start + client_rate)
      in
      while !pos < !stop do
        let s = shards.(route.(!pos)) in
        if s.tail - s.head < queue_cap then begin
          s.q_pages.(s.tail) <- stream.(!pos);
          s.q_waits.(s.tail) <- !round;
          s.tail <- s.tail + 1;
          if s.tail - s.head > s.s_max_depth then
            s.s_max_depth <- s.tail - s.head;
          incr queued;
          incr pos
        end
        else
          match overload with
          | Block ->
              (* head-of-line: the client keeps this request and gives
                 up on the rest of its round *)
              incr stalls;
              stop := !pos
          | Reject ->
              s.s_rejected <- s.s_rejected + 1;
              incr pos
      done;
      cursors.(c) <- !pos;
      if !pos = len && start < len then decr active
    done;
    (* drain phase: up to [batch] per shard, FIFO *)
    for i = 0 to n_shards - 1 do
      let s = shards.(i) in
      let n = if s.tail - s.head < batch then s.tail - s.head else batch in
      if n > 0 then begin
        for j = s.head to s.head + n - 1 do
          s.q_waits.(j) <- !round - s.q_waits.(j)
        done;
        s.head <- s.head + n;
        queued := !queued - n;
        log_batch s ~round:!round ~count:n
      end;
      s.s_depth_sum <- s.s_depth_sum + (s.tail - s.head)
    done;
    incr round
  done;
  {
    config;
    rounds = !round;
    shards = Array.mapi finish_shard shards;
    admitted = Array.fold_left (fun a s -> a + s.tail) 0 shards;
    rejected = Array.fold_left (fun a s -> a + s.s_rejected) 0 shards;
    stalls = !stalls;
  }
[@@effects.deterministic]

let clients_of_trace ~clients trace =
  if clients <= 0 then
    invalid_arg "Scheduler.clients_of_trace: clients must be positive";
  let len = Trace.length trace in
  Array.init clients (fun c ->
      Array.init
        ((len - c + clients - 1) / clients)
        (fun j -> Trace.request trace (c + (j * clients))))
