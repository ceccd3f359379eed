(** Logical-clock admission scheduler: the deterministic time base of
    the serving layer.

    Time advances in {e rounds}.  Each round has two phases:

    + {b admission} — clients, visited in client-id order, each emit up
      to [client_rate] requests from their streams.  A request is
      routed ({!Router.route}) and enqueued on its shard's FIFO queue
      if the queue holds fewer than [queue_cap] entries.  On a full
      queue the configured backpressure applies: [Block] stalls the
      client (it retries the {e same} request next round — head-of-line
      blocking, nothing is ever dropped); [Reject] drops the request,
      counts it as overloaded, and lets the client continue.
    + {b drain} — every shard dequeues up to [batch] requests, in FIFO
      order, forming that round's batch.

    The schedule — which request reaches which shard in which batch —
    is therefore a pure function of [(config, clients, trace)]: no wall
    clock, no thread interleaving, no engine feedback (a drain slot
    costs the same whether the request hits or misses).  That purity
    is what the rest of the layer leans on: {!Service} replays batches
    through per-shard engines {e in parallel} and is still
    byte-identical at every [--jobs] width, and a recorded run replays
    bit-for-bit by rebuilding the same schedule. *)

open Ccache_trace

type overload = Block | Reject

val overload_name : overload -> string
(** ["block"] / ["reject"]. *)

type config = {
  router : Router.t;
  batch : int;  (** max requests a shard drains per round (>= 1) *)
  queue_cap : int;  (** per-shard queue bound (>= 1) *)
  overload : overload;
  client_rate : int;  (** max requests a client emits per round (>= 1) *)
}

val config :
  ?overload:overload ->
  ?client_rate:int ->
  router:Router.t ->
  batch:int ->
  queue_cap:int ->
  unit ->
  config
(** Defaults: [Block], [client_rate = 1].
    @raise Invalid_argument on non-positive [batch], [queue_cap] or
    [client_rate]. *)

type shard_schedule = {
  shard : int;
  pages : int array;
      (** drained requests, in processing order, as dense ids of the
          planned trace ({!Ccache_trace.Trace.dense}) *)
  batches : int array;
      (** sizes of the non-empty drains, in order; they sum to
          [Array.length pages] and prefix-partition it *)
  batch_rounds : int array;
      (** round of each drain, aligned with [batches] *)
  waits : int array;
      (** rounds spent queued, aligned with [pages] (0 = drained in
          its admission round) *)
  rejected : int;  (** requests dropped at this shard ([Reject] only) *)
  max_depth : int;  (** peak queue depth observed at admission *)
  depth_sum : int;  (** post-drain depth summed over rounds *)
}

type t = {
  config : config;
  rounds : int;  (** logical makespan: rounds until drained empty *)
  shards : shard_schedule array;
  admitted : int;
  rejected : int;
  stalls : int;  (** client-rounds lost to [Block] backpressure *)
}

val build : config -> clients:int -> Trace.t -> t
(** Deal the trace over [clients] request streams — client [c] sends
    positions [c], [c + clients], ... in order — and run the admission
    simulation to completion (every stream exhausted, every queue
    empty).  With [client_rate = 1] and no stalls, admission
    re-interleaves the streams back into trace order.  O(requests +
    distinct pages + rounds x shards) time, engine-free.  Each distinct
    page is routed once; memory is a few words per request (its shard's
    [pages] and [waits] slots, the batch log), and nothing is sized by
    [queue_cap], [client_rate] or [clients].

    Order guarantee, relied on by the differential test harness: with
    one client — or with several whose requests never stall or get
    rejected, at [client_rate = 1] — each shard's [pages] selects
    exactly the {!Router.split} sub-trace, in order.
    @raise Invalid_argument if [clients <= 0]. *)
