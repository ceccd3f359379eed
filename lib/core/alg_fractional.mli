(** Online fractional caching in the primal-dual style of Bansal,
    Buchbinder & Naor — the linear program the paper's convex program
    builds on (Section 1.3).

    Exact BBN exponential-update algorithm for linear costs
    (O(log k)-competitive fractionally, vs k for any deterministic
    integral algorithm); for convex costs the page weight is the
    owner's current marginal at its fractional miss volume, a
    documented heuristic extension.  Experiment E12 measures both
    against the integral algorithms. *)

type result = {
  k : int;
  fractional_misses : float array;
      (** per user: evicted-then-refetched mass (plus compulsory
          first-touch misses) *)
  total_cost : float;  (** sum_i f_i(fractional_misses_i) *)
  movement_cost : float;
      (** sum of w_p * dx over eviction mass movements; equals the
          weighted-caching objective for linear costs *)
  max_overflow : float;
      (** worst residual constraint violation after a level rise
          (should be ~0; tracked as a self-check) *)
  solution : (int * float) list;
      (** the fractional primal: one (interval-start position, final
          x) per interval — a feasible point of the unflushed (CP) by
          construction (property-tested) *)
}

val run :
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Ccache_trace.Trace.t ->
  result
