(** Cost evaluation and result presentation: translates per-user
    miss/eviction counts into the paper's objective
    [sum_i f_i(count_i)]. *)

val total_cost :
  costs:Ccache_cost.Cost_function.t array -> Engine.result -> float
(** The objective the experiments report, [sum_i f_i(misses_i)].
    (The (ICP) accounting charges evictions instead; under a terminal
    flush the two agree, and [Cost_function.total costs
    r.evictions_per_user] prices it directly.)
    @raise Invalid_argument on a costs/users mismatch. *)

type row = {
  policy : string;
  hits : int;
  misses : int;
  miss_ratio : float;
  cost : float;
}

val row : costs:Ccache_cost.Cost_function.t array -> Engine.result -> row

val comparison_table :
  ?title:string ->
  costs:Ccache_cost.Cost_function.t array ->
  Engine.result list ->
  Ccache_util.Ascii_table.t
(** One row per result, sorted by ascending cost. *)

val pp_result :
  costs:Ccache_cost.Cost_function.t array ->
  Format.formatter ->
  Engine.result ->
  unit
