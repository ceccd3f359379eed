(** Descriptive statistics over float samples.

    Total on non-empty inputs; functions without a neutral value raise
    [Invalid_argument] on empty arrays. *)

val mean : float array -> float

val variance : float array -> float
(** Unbiased (n-1) sample variance; 0 for singletons. *)

val stddev : float array -> float
val min : float array -> float
val max : float array -> float

val quantile : float array -> float -> float
(** Linear-interpolation quantile; [q] in [\[0, 1\]]. *)

val median : float array -> float

val geometric_mean : float array -> float
(** @raise Invalid_argument on non-positive samples. *)

val linear_fit : xs:float array -> ys:float array -> float * float
(** Ordinary least squares [(slope, intercept)].

    Degeneracy is detected tolerantly, not with exact float equality:
    [xs] count as constant when the accumulated sum of squared
    deviations is within {!Float_cmp.approx_zero}'s absolute tolerance
    ({!Float_cmp.default_tol} = 1e-9) of zero.
    @raise Invalid_argument on length mismatch, fewer than two points,
    or (near-)constant [xs]. *)

val loglog_slope : xs:float array -> ys:float array -> float
(** Exponent of the best power-law fit [y = c * x^e]; inputs must be
    strictly positive.  Used to measure the Theorem 1.4 growth rate. *)

val correlation : xs:float array -> ys:float array -> float
(** Pearson correlation; 0 when either side is (near-)constant, i.e.
    its sum of squared deviations is {!Float_cmp.approx_zero} at the
    default 1e-9 absolute tolerance. *)

val histogram : bins:int -> lo:float -> hi:float -> float array -> int array
(** Equal-width counts over [\[lo, hi)]; out-of-range values clamp to
    the end bins. *)

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

val summarize : float array -> summary
