(** Shared-cache simulation engine.

    Replays a trace against a policy, owning the cache set and all
    accounting.  Guarantees enforced here, independent of the policy:
    the cache never exceeds [k] pages; victims are actually cached and
    never the incoming page; per-user hit/miss/eviction counts are
    conserved.  Violations raise {!Policy_error}.

    The optional [~flush:true] mode implements the paper's terminal
    dummy user (Section 2.1): k final requests by an infinite-cost
    user whose pages can never be evicted, forcing every real page out
    so that evictions equal misses per user.  Because dummy pages are
    never eviction candidates, the engine realises them without
    inserting anything — observationally identical to pinning
    infinite-cost pages, and it works for every policy unmodified. *)

open Ccache_trace

type event =
  | Hit of { pos : int; page : Page.t }
  | Miss_insert of { pos : int; page : Page.t }
      (** miss absorbed without eviction *)
  | Miss_evict of { pos : int; page : Page.t; victim : Page.t }

type result = {
  policy : string;
  k : int;
  trace_length : int;
  n_users : int;
  hits : int;
  misses_per_user : int array;
  evictions_per_user : int array;
  final_cache : Page.t list;  (** sorted; empty after a flush *)
}

val misses : result -> int
val evictions : result -> int
val miss_ratio : result -> float

exception Policy_error of string

(** Stepping form of the engine.  [init] builds the full per-run state
    (policy instance, cache set, accounting arrays); [step t pos]
    replays the request at trace position [pos]; [finish] runs the
    optional terminal flush and assembles the {!result}.  {!replay} is
    exactly [init] + a [step] loop over [0 .. length - 1] + [finish] —
    the split lets a caller keep an engine alive between requests and
    drive it one request at a time.  Two callers do: the lower-bound
    adversary ({!Ccache_lb.Adversary}) and each pool of the multipool
    engine ({!Ccache_multipool.Multi_engine}).

    Positions must be fed in order [0, 1, ..., length - 1], each
    exactly once, before [finish]; [finish] must be called at most
    once.  The state is single-run and single-domain, like a policy
    instance.

    The trace's interner ({!Trace.interner}) is the run's one key
    space: [init] hands it to the policy as {!Policy.Config.ranks}, and
    the cache set is keyed by the same dense ids ({!Trace.dense}): one
    byte per distinct page plus an occupancy counter, so its size is P
    bytes whatever [k] is.  [step] reads the request's dense id and the
    trace's dictionary; a victim, which the policy names as a page, is
    mapped to its dense id through the interner.  The engine's state
    never grows during a run, and the trace is never written, so it
    stays shareable across domains. *)
module Step : sig
  type t

  val init :
    ?flush:bool ->
    ?on_event:(event -> unit) ->
    ?index:Trace.Index.t ->
    k:int ->
    costs:Ccache_cost.Cost_function.t array ->
    Policy.t ->
    Trace.t ->
    t
  (** Same parameters and validation as {!run}. *)

  val length : t -> int
  (** Trace length: the number of [step] calls a full replay makes. *)

  val step : t -> int -> unit
  (** Replay one request.
      @raise Policy_error if the policy misbehaves: its victim is a
      page the trace never requests, a page not cached now, or the
      incoming page. *)

  val feed : t -> Ccache_trace.Page.t -> unit
  (** Dynamic form of [step]: replay [page], any page of the trace's
      dictionary, as the next request, at position = number of
      requests replayed so far.  The lower-bound adversary and the
      multipool engine's pools feed requests as they pick them instead
      of replaying the trace in order; each builds its state over a
      trace whose dictionary holds every page it will feed (the
      adversary's n-page universe, a pool's parent trace).  [step] and
      [feed] run the same decision body.
      @raise Invalid_argument if the trace never requests [page].
      @raise Policy_error as [step]. *)

  val evict : t -> Ccache_trace.Page.t -> unit
  (** Evict a cached page between requests, by the caller's choice
      rather than the policy's: the multipool engine drops a migrated
      tenant's pages this way.  It counts as an eviction of the page's
      owner and is reported to the policy's [on_evict] at the next
      request's position; it emits no event.
      @raise Invalid_argument if [page] is not cached. *)

  val finish : t -> result
  (** Terminal flush (when [init] was given [~flush:true]) plus result
      assembly.  [result.trace_length] is the number of requests
      replayed, stepped or fed (= the trace length after a full [step]
      loop).  [final_cache] is read off the cache set's bytes and
      sorted.
      @raise Policy_error if a flush victim is not cached. *)
end

val replay :
  ?flush:bool ->
  ?on_event:(event -> unit) ->
  ?index:Trace.Index.t ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Policy.t ->
  Trace.t ->
  result
(** The one trace-replay loop: exactly [Step.init] + a [Step.step] loop
    over the whole trace + [Step.finish], with no span and no
    observability counters.  {!run} is [replay] plus that recording;
    the sharded service ({!Ccache_serve.Service}) replays each shard
    through it, {!Ccache_core.Alg_cont} reads its duals off it, and
    {!Ccache_cp.Rounding} replays its integral schedule through it. *)

val record_result_obs : result -> unit
(** Record the per-run observability counters {!run} records after a
    completed run; no-op while recording is off.  Exposed so the
    sharded service ({!Ccache_serve.Service}), whose shards run through
    {!replay}, accounts each shard exactly as a {!run} would. *)

val run :
  ?flush:bool ->
  ?on_event:(event -> unit) ->
  ?index:Trace.Index.t ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Policy.t ->
  Trace.t ->
  result
(** [run ~k ~costs policy trace] replays [trace] ({!replay} inside an
    [engine.run] span, plus {!record_result_obs} while recording is
    on).

    @param flush terminal dummy-user flush (default false)
    @param on_event called for every decision, in trace order
    @param index reuse a prebuilt index (otherwise built on demand for
           offline policies)
    @raise Invalid_argument if [costs] has not exactly one entry per
           user
    @raise Policy_error if the policy misbehaves *)

val run_logged :
  ?flush:bool ->
  ?index:Trace.Index.t ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Policy.t ->
  Trace.t ->
  result * event list
(** {!run} plus the full decision log. *)
