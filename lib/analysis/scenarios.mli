(** Shared workload + cost-function scenarios: E1/E5/E9 all say "the
    SQLVM mix" and mean the same generator and seeds. *)

type t = {
  name : string;
  trace : Ccache_trace.Trace.t;
  costs : Ccache_cost.Cost_function.t array;
}

val mixed_costs : int -> Ccache_cost.Cost_function.t array
(** Cycles x^2 / linear / hinge SLA. *)

val monomial_costs : beta:float -> int -> Ccache_cost.Cost_function.t array
val weighted_costs : int -> Ccache_cost.Cost_function.t array
(** Linear weights 1, 2, 4, ... *)

val zipf : seed:int -> length:int -> tenants:int -> pages:int -> skew:float -> t
val sqlvm : seed:int -> length:int -> scale:int -> t
val churn : seed:int -> length:int -> t
(** Diurnal tenant churn over {!Ccache_trace.Workloads.day_night}. *)

val two_tenant_monomial : seed:int -> length:int -> beta:float -> pages:int -> t
val tiny : seed:int -> tenants:int -> pages_per_tenant:int -> length:int -> t
