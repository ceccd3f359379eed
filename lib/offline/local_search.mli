(** Local search over offline schedules: hill-climbs from a recorded
    run of convex-Belady by forcing alternative victims at
    sampled eviction events and letting the seed policy finish the
    trace.  Deterministically seeded; never worse than the seed. *)

type result = {
  cost : float;
  misses_per_user : int array;
  improvements : int;
  evaluations : int;
}

val improve :
  ?rounds:int ->
  cache_size:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Ccache_trace.Trace.t ->
  result
(** [rounds] candidate moves (default 60). *)
