(** Checker for the algorithm's invariants (paper Section 2.3).

    Given an instrumented {!Alg_cont.run}, verifies numerically every
    condition Lemma 2.1 claims the algorithm maintains:

    - (1a) primal feasibility (cache never exceeds k);
    - (1c) y, z >= 0;
    - (2a) z(p,j) > 0 only where x(p,j) = 1;
    - (2b) the gradient condition is tight at eviction time:
      f'(m(i(p), t-hat)) - y-mass(interval) + z(p,j) = 0;
    - (3a) the gradient condition at final counts is non-negative —
      fully guaranteed only under [~flush:true]; without flush the
      live form (non-negative budgets) is checked for open intervals.

    x in {0,1} (1b) holds by construction. *)

open Ccache_trace

type failure = {
  condition : string;
  page : Page.t option;
  j : int option;
  detail : string;
}

type report = {
  checked_intervals : int;
  checked_steps : int;
  failures : failure list;
}

val ok : report -> bool

val check : Alg_cont.run -> report
(** Every numeric condition is checked with a 1e-9 slack. *)

val run_and_check :
  ?mode:Ccache_cost.Cost_function.derivative_mode ->
  ?flush:bool ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Trace.t ->
  Alg_cont.run * report
(** Run ALG-CONT (flush defaults to true here) and check. *)
