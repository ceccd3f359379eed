(** ALG-CONT (paper Figure 2): the continuous primal-dual algorithm,
    instrumented with its dual variables.

    Decisions are exactly those of ALG-DISCRETE: the run is one
    {!Ccache_sim.Engine.replay} of a {!Budget_state} policy, so the
    engine owns the cache, the miss counts and the terminal flush.  Its
    handlers additionally record what the correctness proof reads: the
    per-step dual increases [y], and one
    {!interval} record per (page, request-interval) carrying the
    primal variable x(p,j) and the eviction metadata.  The z(p,j)
    duals need no explicit tracking — z grows in lockstep with y while
    the page is outside the cache within its interval, so
    [z(p,j) = sum of y over (evict_pos, end_pos)]; {!z_of} computes
    that closed form, and {!Invariants} checks it. *)

open Ccache_trace

type interval = {
  page : Page.t;
  j : int;  (** 1-based interval index *)
  start_pos : int;  (** t(p,j) *)
  mutable end_pos : int option;  (** t(p,j+1), if any *)
  mutable x : bool;  (** primal: evicted in this interval *)
  mutable evict_pos : int option;
  mutable m_at_evict : int option;
      (** m(i(p)) right after this eviction — the argument of f' in
          invariant (2b) *)
}

type run = {
  trace : Trace.t;
  k : int;
  costs : Ccache_cost.Cost_function.t array;
  mode : Ccache_cost.Cost_function.derivative_mode;
  y : float array;
      (** y.(t) = the dual increase at step t (positions [>= length
          trace] are the flush steps when [~flush:true]) *)
  intervals : interval list;  (** in creation order *)
  final_m : int array;  (** m(i, T) per user *)
  misses_per_user : int array;
  result_cache : Page.t list;  (** sorted final cache contents *)
}

val run :
  ?mode:Ccache_cost.Cost_function.derivative_mode ->
  ?flush:bool ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Trace.t ->
  run
(** Replay with dual recording.  [~flush:true] (paper Section 2.1)
    appends k pinned dummy evict-steps so every page's last interval
    ends in an eviction — required for the full invariant (3a).  The
    replay records no observability counters.
    @raise Invalid_argument if [k <= 0] or [costs] has not one entry
    per user. *)

val y_prefix : run -> float array
(** [prefix.(t)] = sum of y over positions < t. *)

val y_between : float array -> after:int -> before:int -> float
(** Sum of y over the open range (after, before), i.e. the paper's
    [sum over t(p,j) < t < t(p,j+1)] when applied to interval ends. *)

val z_of : run -> float array -> interval -> float
(** z(p,j) via the closed form (0 for unevicted intervals). *)

val total_cost : run -> float
(** [sum_i f_i(misses_i)] over real users ({!Ccache_cost.Cost_function.total}). *)
