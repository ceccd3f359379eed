(** Tolerant float comparison.  In [lib/], [Stats] (its zero-variance
    guards) and ALG-CONT's (2b) invariant check call {!approx_zero};
    the tests use the rest.  Other tolerant comparisons in [lib/]
    spell out their own slack. *)

val approx_eq : ?tol:float -> float -> float -> bool
(** [approx_eq a b] iff [|a - b| <= tol * max(1, |a|, |b|)]. *)

val approx_le : ?tol:float -> float -> float -> bool
val approx_ge : ?tol:float -> float -> float -> bool

val approx_zero : ?tol:float -> float -> bool
(** Absolute-tolerance zero test. *)

val relative_error : expected:float -> measured:float -> float
(** Unsigned relative error; absolute error when [expected = 0]. *)

val clamp : lo:float -> hi:float -> float -> float
