(** Projected supergradient ascent on the Lagrangian dual of (CP):
    certified lower bounds on the offline optimum.

    Soundness never depends on ascent quality — every iterate's dual
    value is a valid bound by weak duality and the best one is kept.
    Three step schedules are tried (gradient-normalised, raw
    diminishing, and raw scaled to the costs' natural magnitude)
    because no single scale suits every curvature. *)

type outcome = {
  bound : float;  (** best dual value: certified lower bound, >= 0 *)
  best_y : float array;
  iterations_run : int;
  history : float list;  (** winning schedule's values, oldest first *)
}

val solve : ?iterations:int -> Formulation.t -> outcome
(** [iterations] (default 200) is per ascent schedule. *)

val lower_bound :
  ?iterations:int ->
  ?cache_size:int ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Ccache_trace.Trace.t ->
  float
(** Build the flushed formulation and solve.  [cache_size] defaults to
    [k]; pass [h] for the bi-criteria program (CP-h). *)
