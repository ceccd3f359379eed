(** The paper's quantitative statements as executable formulas; every
    experiment evaluates theorem inequalities through this module so
    each bound is defined exactly once. *)

val alpha_of_costs :
  ?max_x:float -> Ccache_cost.Cost_function.t array -> float
(** alpha = sup over users of {!Ccache_cost.Cost_function.alpha}
    (at least 1). *)

val thm11_rhs :
  ?alpha:float ->
  costs:Ccache_cost.Cost_function.t array ->
  k:int ->
  int array ->
  float
(** Theorem 1.1 RHS: [sum_i f_i(alpha * k * b_i)] on offline per-user
    miss counts [b]. *)

val thm13_rhs :
  ?alpha:float ->
  costs:Ccache_cost.Cost_function.t array ->
  k:int ->
  h:int ->
  int array ->
  float
(** Theorem 1.3 RHS with the offline cache restricted to [h <= k].
    @raise Invalid_argument unless [0 < h <= k]. *)

val cor12_bound : beta:float -> k:int -> float
(** Corollary 1.2: beta^beta * k^beta. *)

val thm14_curve : beta:float -> k:int -> float
(** The lower-bound curve (k/4)^beta of Theorem 1.4's construction. *)

type bound_check = {
  lhs : float;  (** online cost sum_i f_i(a_i) *)
  rhs : float;  (** the theorem bound on offline counts *)
  holds : bool;
  slack : float;  (** rhs - lhs *)
}

val check_thm11 :
  ?alpha:float ->
  costs:Ccache_cost.Cost_function.t array ->
  k:int ->
  a:int array ->
  b:int array ->
  unit ->
  bound_check
(** Both sides of Theorem 1.1 on measured counts ([a] online, [b]
    offline).  Any {e feasible} offline schedule's counts are sound
    for [b]: the RHS is monotone in [b], so the check is implied by
    the theorem. *)

val check_thm13 :
  ?alpha:float ->
  costs:Ccache_cost.Cost_function.t array ->
  k:int ->
  h:int ->
  a:int array ->
  b:int array ->
  unit ->
  bound_check

(** {1 Claim 2.3}

    For convex increasing f with f(0) = 0 and non-negative x_j:
    [f'(S) * S <= alpha * sum_j x_j f'(prefix_j)], S = sum x_j. *)

val claim23_holds : Ccache_cost.Cost_function.t -> float array -> bool
(** The claim with [alpha = Cost_function.alpha f], up to a relative
    slack of 1e-9. *)

val claim23_inner_holds : Ccache_cost.Cost_function.t -> float array -> bool
(** The inner inequality (6) used to prove the claim:
    [sum_j x_j f'(prefix_j) >= f(S)], up to the same slack. *)
