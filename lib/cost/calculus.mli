(** Numeric validation of cost-function properties.

    Theorem 1.1 requires each [f_i] to be convex, increasing and
    non-negative with [f_i(0) = 0].  These checks verify the properties
    on a sample grid.  Only the test suite runs them; no binary
    validates cost functions with them. *)

type violation = { property : string; at : float; detail : string }

val check_derivative :
  ?max_x:float -> ?tol:float -> Cost_function.t -> violation list
(** Analytic derivative vs central differences. *)

val validate_for_guarantee : ?max_x:float -> Cost_function.t -> violation list
(** Everything Theorem 1.1 needs (derivative consistency excluded:
    piecewise shapes are legitimately non-differentiable at
    breakpoints). *)

val is_valid_for_guarantee : ?max_x:float -> Cost_function.t -> bool
