(** Best-of offline suite: the tightest computable upper bound on the
    offline optimum's cost.

    Runs Belady, convex-Belady, optional local search, and exact DP
    when the instance is tiny; returns the cheapest schedule's counts.
    Every comparator is a feasible schedule, so the winner is a sound
    stand-in for the theorems' [b_i] (their RHSs are monotone in [b])
    — see DESIGN.md "OPT bracketing". *)

type outcome = {
  winner : string;
  cost : float;
  misses_per_user : int array;
  all : (string * float) list;  (** every comparator's cost *)
}

val compute :
  ?local_search_rounds:int ->
  ?exact_dp:bool ->
  cache_size:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Ccache_trace.Trace.t ->
  outcome
(** [local_search_rounds] defaults to 40 (0 disables); [exact_dp]
    defaults to automatic (only on clearly tiny instances). *)
