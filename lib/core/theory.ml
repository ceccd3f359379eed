(** The paper's quantitative statements, as executable formulas.

    Every experiment that claims "Theorem X holds" evaluates both sides
    of the theorem's inequality through this module, so the bound
    definitions live in exactly one place. *)

module Cf = Ccache_cost.Cost_function

(** Curvature constant over a set of users:
    alpha = sup_{x,i} x f'_i(x) / f_i(x). *)
let alpha_of_costs ?max_x costs =
  Array.fold_left (fun acc f -> Float.max acc (Cf.alpha ?max_x f)) 1.0 costs

(** Theorem 1.1 right-hand side: sum_i f_i(alpha * k * b_i) where [b]
    are the offline per-user miss counts. *)
let thm11_rhs ?alpha ~costs ~k b =
  if Array.length b <> Array.length costs then
    invalid_arg "Theory.thm11_rhs: misses/costs mismatch";
  let alpha = match alpha with Some a -> a | None -> alpha_of_costs costs in
  let acc = ref 0.0 in
  Array.iteri
    (fun i bi ->
      acc := !acc +. Cf.eval costs.(i) (alpha *. float_of_int k *. float_of_int bi))
    b;
  !acc

(** Theorem 1.3 right-hand side: sum_i f_i(alpha * k/(k-h+1) * b_i)
    where the offline algorithm ran with cache size [h <= k]. *)
let thm13_rhs ?alpha ~costs ~k ~h b =
  if h > k || h <= 0 then invalid_arg "Theory.thm13_rhs: need 0 < h <= k";
  if Array.length b <> Array.length costs then
    invalid_arg "Theory.thm13_rhs: misses/costs mismatch";
  let alpha = match alpha with Some a -> a | None -> alpha_of_costs costs in
  let stretch = alpha *. float_of_int k /. float_of_int (k - h + 1) in
  let acc = ref 0.0 in
  Array.iteri
    (fun i bi -> acc := !acc +. Cf.eval costs.(i) (stretch *. float_of_int bi))
    b;
  !acc

(** Corollary 1.2 competitive-ratio bound for f(x) = x^beta:
    beta^beta * k^beta. *)
let cor12_bound ~beta ~k =
  if beta < 1.0 then invalid_arg "Theory.cor12_bound: beta >= 1";
  Float.pow beta beta *. Float.pow (float_of_int k) beta

(** Theorem 1.4 lower-bound curve: (k/4)^beta (the paper's worst-case
    instance forces at least (n/4)^beta = ((k+1)/4)^beta; we use the
    slightly weaker k/4 form it states as Omega(k)^beta). *)
let thm14_curve ~beta ~k = Float.pow (float_of_int k /. 4.0) beta

type bound_check = {
  lhs : float;  (** online cost: sum_i f_i(a_i) *)
  rhs : float;  (** theorem bound evaluated on offline misses *)
  holds : bool;
  slack : float;  (** rhs - lhs; >= 0 when the bound holds *)
}

let make_check ~lhs ~rhs =
  { lhs; rhs; holds = lhs <= rhs *. (1.0 +. 1e-12) +. 1e-9; slack = rhs -. lhs }

(** Check Theorem 1.1 on measured per-user miss counts: [a] online,
    [b] offline.  Using any *feasible* offline schedule's counts for
    [b] (not necessarily OPT's) gives an implied, still-sound check,
    since the RHS is monotone in [b]. *)
let check_thm11 ?alpha ~costs ~k ~a ~b () =
  let lhs = ref 0.0 in
  Array.iteri (fun i ai -> lhs := !lhs +. Cf.eval costs.(i) (float_of_int ai)) a;
  make_check ~lhs:!lhs ~rhs:(thm11_rhs ?alpha ~costs ~k b)

let check_thm13 ?alpha ~costs ~k ~h ~a ~b () =
  let lhs = ref 0.0 in
  Array.iteri (fun i ai -> lhs := !lhs +. Cf.eval costs.(i) (float_of_int ai)) a;
  make_check ~lhs:!lhs ~rhs:(thm13_rhs ?alpha ~costs ~k ~h b)

(* ------------------------------------------------------------------ *)
(* Claim 2.3                                                           *)
(* ------------------------------------------------------------------ *)

(** Claim 2.3: for convex increasing f with f(0) = 0 and non-negative
    x_1..x_n,
    f'(S) * S <= alpha * sum_j x_j f'(prefix_j)   with S = sum x_j,
    alpha = [Cf.alpha f], up to a relative slack of 1e-9. *)
let claim23_holds f xs =
  let alpha = Cf.alpha f in
  let s = Array.fold_left ( +. ) 0.0 xs in
  let lhs = Cf.deriv f s *. s in
  let rhs = ref 0.0 in
  let prefix = ref 0.0 in
  Array.iter
    (fun x ->
      prefix := !prefix +. x;
      rhs := !rhs +. (x *. Cf.deriv f !prefix))
    xs;
  let rhs = alpha *. !rhs in
  lhs <= rhs +. (1e-9 *. Float.max 1.0 rhs)

(** The inner inequality (6) used to prove Claim 2.3:
    sum_j x_j f'(prefix_j) >= f(S), up to the same relative slack. *)
let claim23_inner_holds f xs =
  let s = Array.fold_left ( +. ) 0.0 xs in
  let rhs = Cf.eval f s in
  let lhs = ref 0.0 in
  let prefix = ref 0.0 in
  Array.iter
    (fun x ->
      prefix := !prefix +. x;
      lhs := !lhs +. (x *. Cf.deriv f !prefix))
    xs;
  !lhs >= rhs -. (1e-9 *. Float.max 1.0 rhs)
