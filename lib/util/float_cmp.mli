(** Tolerant float comparison.  In [lib/], [Stats]'s zero-variance
    guard and ALG-CONT's (2b) invariant check call {!approx_zero}.
    Other tolerant comparisons in [lib/] spell out their own slack. *)

val approx_zero : ?tol:float -> float -> bool
(** Absolute-tolerance zero test: [|a| <= tol], [tol] defaulting to
    1e-9. *)
