(** Tolerant float comparison with a combined absolute/relative
    tolerance.

    In [lib/] only two callers use it, both through [approx_zero]:
    [Stats]'s zero-variance guards and ALG-CONT's (2b) invariant
    check, which compares accumulated dual sums against an analytic
    derivative.  The tests use the rest; other tolerant comparisons in
    [lib/] spell out their own slack. *)

let default_tol = 1e-9

(** [approx_eq ~tol a b] is true when [|a-b| <= tol * max(1,|a|,|b|)]. *)
let approx_eq ?(tol = default_tol) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol *. scale

(** [a <= b] up to tolerance. *)
let approx_le ?(tol = default_tol) a b =
  a <= b || approx_eq ~tol a b

(** [a >= b] up to tolerance. *)
let approx_ge ?(tol = default_tol) a b =
  a >= b || approx_eq ~tol a b

(** True when [a] is zero up to absolute tolerance. *)
let approx_zero ?(tol = default_tol) a = Float.abs a <= tol

(** Signed relative error of [measured] against [expected]. *)
let relative_error ~expected ~measured =
  if expected = 0.0 then Float.abs measured
  else Float.abs (measured -. expected) /. Float.abs expected

let clamp ~lo ~hi x = Float.max lo (Float.min hi x)
