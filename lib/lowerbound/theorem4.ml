(** Driver for the Theorem 1.4 lower-bound experiment (E4).

    For a policy, user count n (so k = n - 1) and exponent beta, runs
    the adaptive adversary, prices the online run with f_i(x) = x^beta,
    and compares against the Section 4 offline batch comparator on the
    induced trace.  The theorem predicts the ratio grows like
    Omega(k)^beta — concretely at least ((k+1)/4)^beta in the paper's
    own accounting — so across a sweep in k, the log-log slope of
    ratio-vs-k should approach beta. *)

module Cf = Ccache_cost.Cost_function
module Batch = Ccache_offline.Batch_offline

type point = {
  policy : string;
  n_users : int;
  k : int;
  beta : float;
  steps : int;
  online_cost : float;
  offline_cost : float;  (** batch comparator: upper bound on OPT *)
  ratio : float;
  theory_curve : float;  (** (k/4)^beta, the paper's Omega(k)^beta form *)
}

let measure ?(steps_per_user = 200) ~n_users ~beta policy =
  let costs = Array.init n_users (fun _ -> Cf.monomial ~beta ()) in
  let steps = steps_per_user * n_users in
  let adv = Adversary.drive ~n_users ~steps ~costs policy in
  let online_cost = Cf.total costs adv.Adversary.online_misses in
  let batch = Batch.run ~k:adv.Adversary.k adv.Adversary.trace in
  let offline_cost = Cf.total costs batch.Batch.misses_per_user in
  let ratio = if offline_cost > 0.0 then online_cost /. offline_cost else infinity in
  {
    policy = Ccache_sim.Policy.name policy;
    n_users;
    k = adv.Adversary.k;
    beta;
    steps;
    online_cost;
    offline_cost;
    ratio;
    theory_curve = Float.pow (float_of_int adv.Adversary.k /. 4.0) beta;
  }

(** Sweep n over [ns] and estimate the ratio's growth exponent in k
    via log-log regression.  Returns the points and the fitted slope —
    Theorem 1.4 predicts slope close to beta. *)
let sweep ?steps_per_user ~ns ~beta policy =
  let points = List.map (fun n -> measure ?steps_per_user ~n_users:n ~beta policy) ns in
  let xs = Array.of_list (List.map (fun p -> float_of_int p.k) points) in
  let ys = Array.of_list (List.map (fun p -> p.ratio) points) in
  let slope = Ccache_util.Stats.loglog_slope ~xs ~ys in
  (points, slope)
