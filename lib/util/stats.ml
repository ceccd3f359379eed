(** Descriptive statistics over float samples.

    Used by trace analysis, experiment reporting and the benchmark
    harness.  All functions are total on non-empty inputs and raise
    [Invalid_argument] on empty inputs where no neutral value exists. *)

let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty sample")

let sum a = Array.fold_left ( +. ) 0.0 a

let mean a =
  check_nonempty "Stats.mean" a;
  sum a /. float_of_int (Array.length a)

(** Unbiased sample variance (n-1 denominator); 0 for singleton samples. *)
let variance a =
  check_nonempty "Stats.variance" a;
  let n = Array.length a in
  if n = 1 then 0.0
  else begin
    let m = mean a in
    let acc = ref 0.0 in
    Array.iter (fun x -> let d = x -. m in acc := !acc +. (d *. d)) a;
    !acc /. float_of_int (n - 1)
  end

let stddev a = sqrt (variance a)

let min a =
  check_nonempty "Stats.min" a;
  Array.fold_left Float.min a.(0) a

let max a =
  check_nonempty "Stats.max" a;
  Array.fold_left Float.max a.(0) a

(** Quantile with linear interpolation; [q] in [\[0,1\]]. *)
let quantile a q =
  check_nonempty "Stats.quantile" a;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let frac = pos -. float_of_int lo in
    ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let median a = quantile a 0.5

(** Geometric mean; requires strictly positive samples. *)
let geometric_mean a =
  check_nonempty "Stats.geometric_mean" a;
  let acc = ref 0.0 in
  Array.iter
    (fun x ->
      if x <= 0.0 then invalid_arg "Stats.geometric_mean: nonpositive sample";
      acc := !acc +. log x)
    a;
  exp (!acc /. float_of_int (Array.length a))

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

(** Pearson correlation coefficient. *)
let correlation ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.correlation: length mismatch";
  if n < 2 then invalid_arg "Stats.correlation: need >= 2 points";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if Float_cmp.approx_zero !sxx || Float_cmp.approx_zero !syy then 0.0
  else !sxy /. sqrt (!sxx *. !syy)

(** Histogram with [bins] equal-width buckets over [\[lo, hi)].
    Returns counts; values outside the range are clamped to end bins. *)
let histogram ~bins ~lo ~hi a =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if hi <= lo then invalid_arg "Stats.histogram: hi <= lo";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = if b < 0 then 0 else if b >= bins then bins - 1 else b in
      counts.(b) <- counts.(b) + 1)
    a;
  counts

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  p95 : float;
  max : float;
}

let summarize a =
  check_nonempty "Stats.summarize" a;
  {
    n = Array.length a;
    mean = mean a;
    stddev = stddev a;
    min = min a;
    p25 = quantile a 0.25;
    median = median a;
    p75 = quantile a 0.75;
    p95 = quantile a 0.95;
    max = max a;
  }
