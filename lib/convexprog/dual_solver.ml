(** Projected supergradient ascent on the Lagrangian dual of (CP).

    Produces a certified lower bound on the convex program's optimum —
    and hence (on a flushed trace, by the relaxation chain
    CP <= ICP <= any offline schedule) on the optimal offline cost.
    Every iterate's dual value is a valid bound by weak duality, so the
    solver simply keeps the best one; ascent quality only affects
    tightness, never soundness (up to the documented float tolerance of
    the inner minimisation, ~1e-9 relative).

    Two step schedules are tried and the better bound kept, because no
    single scale suits every curvature:

    - gradient-norm-normalised steps behave well when the inner minimum
      reacts sharply to c_v crossing f' (near-linear costs);
    - raw diminishing steps reach the much larger dual values of
      strongly convex objectives faster.

    Multipliers for constraints with rhs_t <= 0 are pinned to zero:
    those constraints are slack at any feasible point, so positive
    multipliers only lower g. *)

type outcome = {
  bound : float;  (** best dual value found: certified lower bound *)
  best_y : float array;
  iterations_run : int;
  history : float list;  (** dual values of the winning schedule, oldest first *)
}

let ascent ~iterations ~initial_step ~normalize (cp : Formulation.t) =
  let horizon = cp.Formulation.horizon in
  let active = Array.map (fun rhs -> rhs > 0) cp.Formulation.rhs in
  let y = Array.make horizon 0.0 in
  let best = ref neg_infinity in
  let best_y = ref (Array.copy y) in
  let history = ref [] in
  let record value =
    if value > !best then begin
      best := value;
      best_y := Array.copy y
    end;
    history := value :: !history
  in
  for i = 0 to iterations - 1 do
    let { Lagrangian.value; x_star; _ } = Lagrangian.eval cp ~y in
    record value;
    let grad = Lagrangian.supergradient cp ~x_star in
    let scale =
      if not normalize then 1.0
      else begin
        let norm = ref 0.0 in
        for t = 0 to horizon - 1 do
          if active.(t) then norm := !norm +. (grad.(t) *. grad.(t))
        done;
        let n = sqrt !norm in
        if n > 0.0 then 1.0 /. n else 0.0
      end
    in
    let step = initial_step *. scale /. sqrt (float_of_int (i + 1)) in
    if step > 0.0 then
      for t = 0 to horizon - 1 do
        if active.(t) then y.(t) <- Float.max 0.0 (y.(t) +. (step *. grad.(t)))
      done
  done;
  let { Lagrangian.value; _ } = Lagrangian.eval cp ~y in
  record value;
  (!best, !best_y, List.rev !history)

(* crude estimate of the dual variables' natural magnitude: the
   marginal cost of a user at half its request volume.  For x^3 costs
   this is ~1e6 where a unit step would need thousands of iterations *)
let auto_scale (cp : Formulation.t) =
  let acc = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun u ids ->
      let half = float_of_int (List.length ids) /. 2.0 in
      if half > 0.0 then begin
        acc := !acc +. Ccache_cost.Cost_function.deriv cp.Formulation.costs.(u) half;
        incr n
      end)
    cp.Formulation.vars_of_user;
  if !n = 0 then 1.0
  else Float.max 1.0 (!acc /. float_of_int !n /. sqrt (float_of_int cp.Formulation.horizon))

let solve ?(iterations = 200) (cp : Formulation.t) =
  let schedules =
    [
      ascent ~iterations ~initial_step:1.0 ~normalize:true cp;
      ascent ~iterations ~initial_step:1.0 ~normalize:false cp;
      ascent ~iterations ~initial_step:(auto_scale cp) ~normalize:false cp;
    ]
  in
  let bound, best_y, history =
    List.fold_left
      (fun (bb, by, bh) (b, y, h) -> if b > bb then (b, y, h) else (bb, by, bh))
      (List.hd schedules) (List.tl schedules)
  in
  {
    bound = Float.max 0.0 bound;
    best_y;
    iterations_run = 3 * iterations;
    history;
  }

(** Convenience: build the (flushed) formulation and solve.  [k] is the
    online cache size; [cache_size] defaults to [k] (pass [h] for the
    bi-criteria program (CP-h)). *)
let lower_bound ?iterations ?cache_size ~k ~costs trace =
  let cache_size = Option.value cache_size ~default:k in
  let cp = Formulation.of_trace ~flush:true ~cache_size ~costs trace in
  (solve ?iterations cp).bound
