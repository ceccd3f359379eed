(** Exact offline optimum by dynamic programming (tiny instances).

    The convex objective is not additive per step, so the state is
    (cache bitmask) x (Pareto front of per-user miss vectors); all f_i
    are increasing, so some Pareto vector attains the optimum.
    Practical limits ~16 distinct pages, k <= 6, T <= 40.  This is the
    ground truth certifying the heuristic offline upper bounds and the
    dual lower bound on small instances (experiment E8). *)

exception Too_large of string

type result = {
  cost : float;
  misses_per_user : int array;  (** a cost-optimal vector *)
  states_explored : int;
}

val solve :
  ?pinned:(Ccache_trace.Page.t -> bool) ->
  cache_size:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Ccache_trace.Trace.t ->
  result
(** @param pinned pages that may never be evicted once cached (models
      the paper's infinite-cost flush user); states with no legal
      victim are dropped.
    @raise Too_large beyond 62 distinct pages or 2M front entries in
      a step. *)
