(** Feasibility repair: turn a fractional (CP) solution into an
    integral schedule by replaying the program's requests through
    {!Ccache_sim.Engine}, evicting the cached page with the largest
    current fractional variable (with the engine's terminal flush when
    the program is flushed).  The result's objective upper-bounds the
    (ICP) optimum — E8's upper jaw. *)

type outcome = {
  misses_per_user : int array;
  evictions_per_user : int array;
  cost_by_misses : float;
  cost_by_evictions : float;
}

val round : Formulation.t -> x:float array -> outcome
(** @raise Invalid_argument on a dimension mismatch. *)
