(** Least-squares fits over float samples (the Theorem 1.4 slope
    measurement). *)

(* [linear_fit] has checked [n >= 2] before it takes a mean. *)
let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(** Ordinary least squares fit [y = slope*x + intercept].
    Returns [(slope, intercept)]. *)
let linear_fit ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_fit: need >= 2 points";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx in
    sxy := !sxy +. (dx *. (ys.(i) -. my));
    sxx := !sxx +. (dx *. dx)
  done;
  (* Tolerance check, not [= 0.0]: accumulated squared deviations carry
     rounding error, so near-constant xs are just as degenerate. *)
  if Float_cmp.approx_zero !sxx then
    invalid_arg "Stats.linear_fit: degenerate xs";
  let slope = !sxy /. !sxx in
  (slope, my -. (slope *. mx))

(** Slope of the log-log regression, i.e. the exponent [e] of the best
    power-law fit [y = c * x^e].  Inputs must be strictly positive. *)
let loglog_slope ~xs ~ys =
  let logs a =
    Array.map
      (fun x ->
        if x <= 0.0 then invalid_arg "Stats.loglog_slope: nonpositive input";
        log x)
      a
  in
  fst (linear_fit ~xs:(logs xs) ~ys:(logs ys))
