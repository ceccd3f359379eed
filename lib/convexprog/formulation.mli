(** The convex program (CP) / (CP-h) of paper Figures 1 and 4.

    Variables x(p,j) in [0,1] mean "page p is evicted between its j-th
    and (j+1)-th requests"; one covering constraint per time
    ([activity >= |B(t)| - cache_size]); objective
    [sum_i f_i(sum of user i's variables)].

    Variable (p,j) appears in exactly the constraints for
    [t(p,j) < t < t(p,j+1)], so membership is never materialised:
    interval endpoints suffice for dual mass accumulation (prefix
    sums) and constraint activity (difference arrays).

    Built from a flushed trace ([~flush:true]) the program's optimum
    lower-bounds the optimal offline cost under the miss = eviction
    accounting; flush-user variables are pinned to 0 (the paper gives
    the dummy user infinite cost). *)

open Ccache_trace

type var = {
  page : Page.t;
  j : int;  (** 1-based interval index *)
  start_pos : int;  (** t(p,j) *)
  end_pos : int;  (** t(p,j+1), or the horizon *)
}

type t = {
  trace : Trace.t;  (** possibly flushed *)
  real_users : int;
  cache_size : int;  (** k, or h for (CP-h) *)
  costs : Ccache_cost.Cost_function.t array;
  vars : var array;
  vars_of_user : int list array;
  rhs : int array;  (** rhs.(t) = |B(t)| - cache_size (may be <= 0) *)
  horizon : int;
}

val n_vars : t -> int
val horizon : t -> int

val of_trace :
  ?flush:bool ->
  cache_size:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Trace.t ->
  t
(** [flush] (default true) appends [cache_size] pinned dummy requests
    — the flush width must equal the program's cache size or the
    pinned program becomes infeasible (dual unbounded). *)

val var_costs : t -> y_prefix:float array -> float array
(** Per-variable dual mass c_v = sum of y over the open span, given
    prefix sums ([y_prefix.(t)] = sum over positions < t). *)

val constraint_activity : t -> float array -> float array
(** Per-constraint [sum over members of x_v], in O(V + T). *)

val objective : t -> float array -> float

type feasibility = {
  feasible : bool;
  worst_violation : float;
  violated_constraints : int;
  box_violations : int;
}

val check_feasible : ?tol:float -> t -> float array -> feasibility

val solution_of_evictions : t -> (int * Page.t) list -> float array
(** Integral solution induced by a schedule: for each
    [(position, page)] eviction, sets the covering variable whose span
    contains the position.  Embeds engine runs into the program (the
    paper's observation that every algorithm yields a feasible (ICP)
    point). *)
