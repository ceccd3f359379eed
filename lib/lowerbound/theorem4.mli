(** Driver for the Theorem 1.4 lower-bound experiment (E4): runs the
    adaptive adversary against a policy with f_i(x) = x^beta, prices
    the online run, compares to the Section 4 batch comparator, and
    fits the ratio's growth exponent in k (theory: beta). *)

type point = {
  policy : string;
  n_users : int;
  k : int;
  beta : float;
  steps : int;
  online_cost : float;
  offline_cost : float;  (** batch comparator: an OPT upper bound *)
  ratio : float;
  theory_curve : float;  (** (k/4)^beta *)
}

val measure :
  ?steps_per_user:int ->
  n_users:int ->
  beta:float ->
  Ccache_sim.Policy.t ->
  point
(** One adversarial run; [steps = steps_per_user * n_users]
    (default 200 per user). *)

val sweep :
  ?steps_per_user:int ->
  ns:int list ->
  beta:float ->
  Ccache_sim.Policy.t ->
  point list * float
(** Points across user counts plus the log-log slope of ratio vs k. *)
