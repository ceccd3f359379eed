(** Convex piecewise-linear functions through the origin.

    Represented as an array of [(breakpoint, slope)] pairs sorted by
    breakpoint; [slope_j] applies on [x >= breakpoint_j] until the next
    breakpoint.  The first breakpoint must be 0.  Convexity (and hence
    a valid alpha) requires non-decreasing slopes; {!validate} accepts
    non-convex sequences too, because the paper's algorithm runs
    (without guarantee) on arbitrary costs — {!is_convex} reports
    which case holds. *)

val validate : (float * float) array -> (float * float) array
(** Sorts by breakpoint and checks structure (first breakpoint 0, no
    duplicates, non-negative slopes).
    @raise Invalid_argument otherwise. *)

val is_convex : (float * float) array -> bool

val eval : (float * float) array -> float -> float
(** @raise Invalid_argument if [x < 0]. *)

val deriv : (float * float) array -> float -> float
(** Right derivative: the marginal rate of the segment containing [x]. *)
