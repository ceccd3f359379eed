(** Tolerant float comparison.

    In [lib/] two callers use it: [Stats]'s zero-variance guard and
    ALG-CONT's (2b) invariant check, which compares accumulated dual
    sums against an analytic derivative.  Other tolerant comparisons in
    [lib/] spell out their own slack. *)

(** True when [a] is zero up to absolute tolerance. *)
let approx_zero ?(tol = 1e-9) a = Float.abs a <= tol
