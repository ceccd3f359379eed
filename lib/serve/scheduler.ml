(** Logical-clock admission scheduler (see the interface for the round
    semantics).  Everything here is plain bookkeeping over flat int
    arrays; the engines never run under this module, so the schedule
    cannot depend on cache contents.

    Layout.  The plan works on the trace's dense ids.  Every distinct
    page is routed once, up front, into a table indexed by dense id, and
    one pass over the requests counts each shard's routed total.  A
    shard's output arrays ([pages], [waits]) are presized to that count
    and double as its FIFO queue:
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
  pages : int array;
  batches : int array;
  batch_rounds : int array;
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
  q_pages : int array;  (* admitted dense ids, admission = drain order *)
  q_waits : int array;  (* submit round while queued, wait once drained *)
  mutable head : int;  (* first queued slot *)
  mutable tail : int;  (* next admission slot = admitted so far *)
  mutable sizes : int array;  (* batch log: counts ... *)
  mutable rounds : int array;  (* ... and their rounds *)
  mutable logged : int;  (* batches in the log *)
  mutable s_rejected : int;
  mutable s_max_depth : int;
  mutable s_depth_sum : int;
}

let log_batch s ~round ~count =
  let i = s.logged in
  if i = Array.length s.sizes then begin
    let grow a =
      let bigger = Array.make (2 * i) 0 in
      Array.blit a 0 bigger 0 i;
      bigger
    in
    s.sizes <- grow s.sizes;
    s.rounds <- grow s.rounds
  end;
  s.sizes.(i) <- count;
  s.rounds.(i) <- round;
  s.logged <- i + 1

let finish_shard i s =
  let trim n a = if n = Array.length a then a else Array.sub a 0 n in
  {
    shard = i;
    pages = trim s.tail s.q_pages;
    batches = trim s.logged s.sizes;
    batch_rounds = trim s.logged s.rounds;
    waits = trim s.tail s.q_waits;
    rejected = s.s_rejected;
    max_depth = s.s_max_depth;
    depth_sum = s.s_depth_sum;
  }

(* A u32 dense id, read at the concrete type: a 32-bit load *)
let[@inline] id_at (dense : Trace.ids) pos =
  Int32.to_int (Bigarray.Array1.unsafe_get dense pos) land 0xFFFF_FFFF

let build config ~clients trace =
  if clients <= 0 then invalid_arg "Scheduler.build: clients must be positive";
  let { router; batch; queue_cap; overload; client_rate } = config in
  let n_shards = Router.shards router in
  let dense = Trace.dense trace in
  let len = Bigarray.Array1.dim dense in
  (* [route.(d)] is the shard of dense id [d]: one routing per page *)
  let route = Array.map (Router.route router) (Trace.pages trace) in
  let routed = Array.make n_shards 0 in
  for pos = 0 to len - 1 do
    let s = route.(id_at dense pos) in
    routed.(s) <- routed.(s) + 1
  done;
  let shards =
    Array.map
      (fun n ->
        (* a round drains at most [batch], so a shard that admits all
           [n] logs at least [n / batch] batches *)
        let log = (n / batch) + 1 in
        {
          q_pages = Array.make n 0;
          q_waits = Array.make n 0;
          head = 0;
          tail = 0;
          sizes = Array.make log 0;
          rounds = Array.make log 0;
          logged = 0;
          s_rejected = 0;
          s_max_depth = 0;
          s_depth_sum = 0;
        })
      routed
  in
  (* client [c] reads positions [c], [c + clients], ...: a client past
     the last position has nothing to send, so only the first [len]
     take part, and a cursor never passes [2 * len] *)
  let n_clients = if clients < len then clients else len in
  let cursors = Array.init n_clients Fun.id in
  let active = ref n_clients in
  let queued = ref 0 in
  let stalls = ref 0 in
  let round = ref 0 in
  while !active > 0 || !queued > 0 do
    (* admission phase: clients in id order, up to [client_rate] each *)
    for c = 0 to n_clients - 1 do
      let pos = ref cursors.(c) in
      if !pos < len then begin
        let budget = ref client_rate in
        while !budget > 0 && !pos < len do
          let d = id_at dense !pos in
          let s = shards.(route.(d)) in
          if s.tail - s.head < queue_cap then begin
            s.q_pages.(s.tail) <- d;
            s.q_waits.(s.tail) <- !round;
            s.tail <- s.tail + 1;
            if s.tail - s.head > s.s_max_depth then
              s.s_max_depth <- s.tail - s.head;
            incr queued;
            pos := !pos + n_clients;
            decr budget
          end
          else
            match overload with
            | Block ->
                (* head-of-line: the client keeps this request and gives
                   up on the rest of its round *)
                incr stalls;
                budget := 0
            | Reject ->
                s.s_rejected <- s.s_rejected + 1;
                pos := !pos + n_clients;
                decr budget
        done;
        cursors.(c) <- !pos;
        if !pos >= len then decr active
      end
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
