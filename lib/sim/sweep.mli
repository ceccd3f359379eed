(** Parameter-sweep helpers for experiments and benches. *)

val product : 'a list -> 'b list -> ('a * 'b) list
val product3 : 'a list -> 'b list -> 'c list -> ('a * 'b * 'c) list

val geometric : start:int -> stop:int -> factor:float -> int list
(** Rounded geometric range, strictly increasing, not exceeding
    [stop] (which may be [max_int]).
    @raise Invalid_argument on a bad range or a [factor] that is not
    finite or not above 1. *)

val arithmetic : start:int -> stop:int -> step:int -> int list
(** Inclusive range [start, start+step, ...] not exceeding [stop]
    (which may be [max_int]).  @raise Invalid_argument if [step <= 0]. *)

val linspace : start:float -> stop:float -> count:int -> float list

val run :
  ?pool:Ccache_util.Domain_pool.t ->
  'a list ->
  f:('a -> 'b) ->
  ('a * 'b) list
(** Map keeping the sweep point for labelling.  With [?pool] the cells
    are evaluated in parallel on the pool's workers; the result list is
    in input order either way. *)

(** {1 Engine-cell sweeps}

    A grid of (policy, k, costs) cells, usually over one shared request
    trace.  {!run_cells} runs one {!Engine.run} per cell; the only work
    cells share is the offline policies' trace index. *)

type cell = {
  policy : Policy.t;
  k : int;
  costs : Ccache_cost.Cost_function.t array;
  flush : bool;
  trace : Ccache_trace.Trace.t;
}

val cell :
  ?flush:bool ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Policy.t ->
  Ccache_trace.Trace.t ->
  cell
(** One engine run's parameters ([flush] defaults to false), mirroring
    {!Engine.run}'s. *)

val rows : width:int -> 'a list -> 'a list list
(** Split a flat row-major list into rows of [width] — the inverse of
    building a grid's cells with [List.concat_map].
    @raise Invalid_argument if [width <= 0] or the length is not a
    multiple of [width]. *)

val run_cells : cell list -> Engine.result list
(** One {!Engine.run} per cell, in input order, so the results and obs
    metrics are exactly those of the solo runs.  Offline
    ({!Policy.needs_future}) cells over the same trace — physically
    shared ([==]), not merely equal — reuse one
    {!Ccache_trace.Trace.Index} instead of each building its own. *)

val run_supervised :
  ?pool:Ccache_util.Domain_pool.t ->
  ?policy:Ccache_util.Supervisor.policy ->
  ?fault:Ccache_util.Fault.t ->
  ?checkpoint:Ccache_util.Checkpoint.t ->
  ?codec:'b Ccache_util.Supervisor.codec ->
  ?on_event:(Ccache_util.Supervisor.event -> unit) ->
  seed:int ->
  task_id:('a -> string) ->
  'a list ->
  f:(Ccache_util.Supervisor.ctx -> Ccache_util.Prng.t -> 'a -> 'b) ->
  ('a * 'b Ccache_util.Supervisor.outcome) list
(** Supervised variant of {!run} that hands each cell a private
    {!Ccache_util.Prng} stream: per-cell deadlines and
    cooperative cancellation (the [ctx]), bounded deterministic retry,
    quarantine of permanently-failing cells, fault injection, and
    checkpoint replay ([?checkpoint] requires [?codec]).

    Determinism: each cell's stream is {!Ccache_util.Prng.derive}d from
    [(seed, task_id cell)] — independent of split order, position, and
    attempt number — so a retried (or resumed) cell recomputes exactly
    what an undisturbed first attempt would have, and a run with
    injected transient faults is byte-identical to a fault-free run at
    any pool width.  [task_id] must be injective over [points]
    (duplicate ids raise [Invalid_argument]). *)
