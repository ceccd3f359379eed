(** Per-instance competitive certificates from the algorithm's own
    dual variables.

    ALG-CONT's y° are multipliers for exactly the constraints of (CP)
    on the flushed trace; by weak duality the Lagrangian dual value at
    any rescaling of y° lower-bounds the offline optimum, so a single
    online run certifies [ratio <= cost(ALG) / g(c*y°)] with no
    offline heuristic involved.  A scaling grid plus a few
    warm-started ascent iterations tighten the bound (the raw y°
    typically over-charge and certify nothing until rescaled —
    experiment E11 reports all stages). *)

type t = {
  online_cost : float;
  raw_bound : float;  (** g(y°) — can be negative *)
  scaled_bound : float;  (** best over the scaling grid *)
  best_scale : float;
  improved_bound : float;  (** after warm-started ascent; >= 0 *)
  certified_ratio : float;
      (** online_cost / improved_bound; [1] for a run that costs
          nothing, and [infinity] for a positive cost with no positive
          bound *)
}

val certify :
  ?ascent_iterations:int ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Ccache_trace.Trace.t ->
  t
(** Runs ALG-CONT (flushed, discrete marginals) and certifies it.
    [ascent_iterations] defaults to 50 (0 disables refinement). *)

val pp : Format.formatter -> t -> unit
