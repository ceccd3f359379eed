(** The sharded cache service, replay form: schedule, execute, merge.

    [run] is the whole pipeline: {!Scheduler.clients_of_trace} deals
    the recorded trace over the configured clients,
    {!Scheduler.build} derives the deterministic round schedule, every
    shard replays the requests it drained, in drain order, as one
    {!Ccache_sim.Engine.replay} — on [?pool]'s worker domains when given —
    and the per-shard results are merged into service-level
    accounting: summed per-user miss counts, total convex cost
    [sum_i f_i(m_i)] over the {e merged} counts, and logical
    throughput (admitted requests per round).

    Because the schedule is engine-free and the shard executions are
    independent, the result is a pure function of
    [(config, costs, trace)]: byte-identical at every [--jobs] width,
    with or without observability recording, and across
    record/replay.  Observability for the service itself (queue
    depths, waits, per-shard engine counters) is recorded {e after}
    the merge, on the calling domain, in shard order — so the metrics
    export is width-independent too.

    [run_supervised] is the fault-tolerant variant: one
    {!Ccache_util.Supervisor} task per shard (ids ["shard/<i>"]),
    engine results checkpointed through {!engine_codec} so a killed
    run resumes bit-for-bit ({!fingerprint} guards the snapshot
    against configuration drift). *)

open Ccache_trace

type config = {
  sched : Scheduler.config;
  shard_k : int;  (** cache capacity of each shard *)
  policy : Ccache_sim.Policy.t;
  clients : int;  (** client streams the trace is dealt over *)
}

val config :
  ?policy:Ccache_sim.Policy.t ->
  ?clients:int ->
  ?overload:Scheduler.overload ->
  ?client_rate:int ->
  ?batch:int ->
  ?queue_cap:int ->
  router:Router.t ->
  shard_k:int ->
  unit ->
  config
(** Defaults: [Alg_fast.policy ()], [clients = 1], [Block],
    [client_rate = 1], [batch = 8], [queue_cap = 64].
    @raise Invalid_argument on a non-positive parameter or an offline
    (future-peeking) policy, which cannot serve. *)

type result = {
  r_config : config;
  schedule : Scheduler.t;  (** admission outcome: rounds, queues, drops *)
  engines : Ccache_sim.Engine.result array;  (** indexed by shard *)
  misses_per_user : int array;  (** summed across shards *)
  hits : int;
  total_cost : float;
      (** [sum_i f_i(misses_per_user.(i))] over the merged counts *)
  throughput : float;  (** admitted requests per logical round *)
}

val requests : result -> int
(** Total client requests = admitted + rejected. *)

val misses : result -> int

val plan : config -> Trace.t -> Scheduler.t
(** The admission schedule [run] executes: [clients_of_trace] +
    [build].  Exposed for tests and for the CLI's dry summary. *)

val run :
  ?pool:Ccache_util.Domain_pool.t ->
  config ->
  costs:Ccache_cost.Cost_function.t array ->
  Trace.t ->
  result
(** Serve the whole trace.  @raise Invalid_argument if [costs] has not
    exactly one entry per trace user (shards re-validate their
    sub-traces), or via {!Scheduler.build} / {!Ccache_sim.Engine.replay}. *)

(** {1 Supervised execution} *)

val shard_task_id : int -> string
(** ["shard/<i>"] — the supervisor task id of shard [i], the name
    {!Ccache_util.Fault.kill} targets in fault-injection tests. *)

val engine_codec : Ccache_sim.Engine.result Ccache_util.Supervisor.codec
(** Single-line, exact (all-integer) codec for checkpointed shard
    results; [decode] returns [None] on malformed payloads, forcing
    recomputation. *)

val fingerprint :
  config -> costs:Ccache_cost.Cost_function.t array -> Trace.t -> string
(** Single-line digest of everything a shard result depends on —
    routing, knobs, policy, cost-function names, and a hash of the
    packed request sequence — used as the {!Ccache_util.Checkpoint}
    fingerprint so a snapshot can only replay into the run shape that
    wrote it. *)

type supervised = {
  outcome : result option;
      (** [Some] iff every shard completed (or replayed) *)
  failures : Ccache_util.Supervisor.failure list;
  replayed : string list;  (** task ids served from the checkpoint *)
}

val run_supervised :
  ?pool:Ccache_util.Domain_pool.t ->
  ?policy:Ccache_util.Supervisor.policy ->
  ?fault:Ccache_util.Fault.t ->
  ?checkpoint:Ccache_util.Checkpoint.t ->
  ?on_event:(Ccache_util.Supervisor.event -> unit) ->
  config ->
  costs:Ccache_cost.Cost_function.t array ->
  Trace.t ->
  supervised
(** {!run} with one supervised task per shard.  Quarantined shards
    leave [outcome = None] (a partial merge would misreport costs);
    completed shards' payloads are still flushed to [?checkpoint], so
    a follow-up run replays them and only re-executes the failed
    shards.  Service-level obs is recorded only when the merge
    happens. *)
