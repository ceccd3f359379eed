(** Cost evaluation and result presentation: translates per-user
    miss/eviction counts into the paper's objective
    [sum_i f_i(count_i)]. *)

type accounting =
  | By_misses  (** the objective the experiments report *)
  | By_evictions  (** the (ICP) accounting; equals misses under flush *)

val total_cost :
  ?accounting:accounting ->
  costs:Ccache_cost.Cost_function.t array ->
  Engine.result ->
  float
(** @raise Invalid_argument on a costs/users mismatch. *)

val per_user_cost :
  ?accounting:accounting ->
  costs:Ccache_cost.Cost_function.t array ->
  Engine.result ->
  float array

type row = {
  policy : string;
  hits : int;
  misses : int;
  miss_ratio : float;
  cost : float;
}

val row :
  ?accounting:accounting ->
  costs:Ccache_cost.Cost_function.t array ->
  Engine.result ->
  row

val comparison_table :
  ?accounting:accounting ->
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
