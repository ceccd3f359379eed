(** Least-squares fits over float samples: the Theorem 1.4 growth-rate
    measurement. *)

val linear_fit : xs:float array -> ys:float array -> float * float
(** Ordinary least squares [(slope, intercept)].

    Degeneracy is detected tolerantly, not with exact float equality:
    [xs] count as constant when the accumulated sum of squared
    deviations is within {!Float_cmp.approx_zero}'s default absolute
    tolerance (1e-9) of zero.
    @raise Invalid_argument on length mismatch, fewer than two points,
    or (near-)constant [xs]. *)

val loglog_slope : xs:float array -> ys:float array -> float
(** Exponent of the best power-law fit [y = c * x^e]; inputs must be
    strictly positive.  Used to measure the Theorem 1.4 growth rate. *)
