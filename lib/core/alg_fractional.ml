(** Online fractional caching in the primal-dual style of Bansal,
    Buchbinder and Naor (J.ACM 2012) — the linear program the paper's
    convex program explicitly builds on (Section 1.3).

    State: for each requested page's current interval a fraction
    x(p) in [0,1] of the page that has been evicted.  On a request the
    page's fraction resets to 0 (a new interval starts; the fetch cost
    of the previously evicted mass is charged then).  Whenever the
    in-cache mass exceeds k, a global "water level" y rises and every
    unsaturated page's fraction grows at rate

      dx_p / dy = (x_p + 1/k) / w_p

    — the classical exponential update, whose closed form
    [x_p(y) = (x_p0 + 1/k) e^{(y - y0)/w_p} - 1/k] lets one bisection
    per request find the exact level at which the constraint
    [sum over B(t) minus p_t of x >= |B(t)| - k] becomes tight.  For
    linear costs w_i this is exactly the O(log k)-competitive BBN
    fractional weighted-caching algorithm.

    For convex costs the weight of a page is the owner's {e current}
    marginal cost [f_i(m_i + 1) - f_i(m_i)] at its fractional miss
    volume m_i — a heuristic extension (the principled integral
    treatment is ALG-DISCRETE); experiment E12 quantifies both. *)

module Cf = Ccache_cost.Cost_function
open Ccache_trace

type result = {
  k : int;
  fractional_misses : float array;
      (** per user: total evicted-then-refetched mass *)
  total_cost : float;
      (** sum_i f_i(fractional_misses_i) — the convex objective at the
          fractional miss volumes *)
  movement_cost : float;
      (** sum over eviction events of w_p * dx — the weighted-caching
          objective (equals total_cost for linear costs) *)
  max_overflow : float;  (** worst residual constraint violation seen *)
  solution : (int * float) list;
      (** the fractional primal the run produced: one
          (interval-start position, final x) pair per interval, in no
          particular order — by construction a feasible point of the
          unflushed (CP), which the tests verify *)
}

type page_state = {
  mutable x : float;  (** evicted fraction of the current interval *)
  mutable weight : float;  (** w_p frozen at interval start *)
  mutable interval_start : int;  (** position that opened the interval *)
}

let run ~k ~costs trace =
  if k <= 0 then invalid_arg "Alg_fractional.run: k must be positive";
  let n_users = Trace.n_users trace in
  if Array.length costs <> n_users then
    invalid_arg "Alg_fractional.run: costs/users mismatch";
  let states : page_state Page.Tbl.t = Page.Tbl.create 256 in
  let solution = ref [] in
  let fractional_misses = Array.make n_users 0.0 in
  let movement = ref 0.0 in
  let max_overflow = ref 0.0 in
  let marginal u =
    let m = fractional_misses.(u) in
    Cf.eval costs.(u) (m +. 1.0) -. Cf.eval costs.(u) m
  in
  let n = Trace.length trace in
  for pos = 0 to n - 1 do
    let p = Trace.request trace pos in
    let u = Page.user p in
    (* close p's previous interval: the evicted mass x is refetched
       now, so it counts as fractional misses of the owner *)
    (match Page.Tbl.find_opt states p with
    | Some s ->
        fractional_misses.(u) <- fractional_misses.(u) +. s.x;
        solution := (s.interval_start, s.x) :: !solution;
        s.x <- 0.0;
        s.weight <- Float.max 1e-12 (marginal u);
        s.interval_start <- pos
    | None ->
        (* first touch: a compulsory (whole) miss *)
        fractional_misses.(u) <- fractional_misses.(u) +. 1.0;
        Page.Tbl.replace states p
          { x = 0.0; weight = Float.max 1e-12 (marginal u); interval_start = pos });
    (* constraint at this position: sum over seen pages except p of x
       must reach D - k, where D = #seen pages *)
    let d = Page.Tbl.length states in
    let need = float_of_int (d - k) in
    if need > 0.0 then begin
      let current =
        Page.Tbl.fold
          (fun q s acc -> if Page.equal q p then acc else acc +. s.x)
          states 0.0
      in
      (* a shortfall within 1e-9 counts as met *)
      if current < need -. 1e-9 then begin
        (* find the water-level rise dy making the constraint tight:
           x_q(dy) = min(1, (x_q + 1/k) e^{dy/w_q} - 1/k) summed over
           q <> p is monotone in dy *)
        let inv_k = 1.0 /. float_of_int k in
        let grown s dy =
          Float.min 1.0 (((s.x +. inv_k) *. exp (dy /. s.weight)) -. inv_k)
        in
        let total dy =
          Page.Tbl.fold
            (fun q s acc -> if Page.equal q p then acc else acc +. grown s dy)
            states 0.0
        in
        (* bracket: total is unbounded toward d-1 >= need as dy grows *)
        let hi = ref 1.0 in
        while total !hi < need && !hi < 1e12 do
          hi := !hi *. 2.0
        done;
        let rec bisect lo hi iters =
          if iters = 0 then hi
          else
            let mid = 0.5 *. (lo +. hi) in
            if total mid < need then bisect mid hi (iters - 1)
            else bisect lo mid (iters - 1)
        in
        let dy = bisect 0.0 !hi 80 in
        (* apply the growth, charging movement cost w * dx *)
        Page.Tbl.iter
          (fun q s ->
            if not (Page.equal q p) then begin
              let x' = grown s dy in
              movement := !movement +. (s.weight *. (x' -. s.x));
              s.x <- x'
            end)
          states;
        let residual = need -. total 0.0 in
        if residual > !max_overflow then max_overflow := residual
      end
    end
  done;
  let total_cost =
    let acc = ref 0.0 in
    Array.iteri
      (fun u m -> acc := !acc +. Cf.eval costs.(u) m)
      fractional_misses;
    !acc
  in
  (* close the still-open intervals *)
  Page.Tbl.iter
    (fun _ s -> solution := (s.interval_start, s.x) :: !solution)
    states;
  { k; fractional_misses; total_cost; movement_cost = !movement;
    max_overflow = !max_overflow; solution = !solution }
