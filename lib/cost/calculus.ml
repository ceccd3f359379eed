(** Numeric validation of cost-function properties.

    The guarantees of Theorem 1.1 require each [f_i] to be
    differentiable, convex, increasing and non-negative with
    [f_i(0) = 0].  These checks verify the properties on a sample grid;
    only the test suite runs them. *)

type violation = {
  property : string;
  at : float;
  detail : string;
}

(** Geometric + integer sampling grid over (0, max_x]. *)
let grid ?(max_x = 10_000.0) () =
  let pts = ref [] in
  (* integer points dominate in practice (miss counts are integers) *)
  let i = ref 1 in
  while float_of_int !i <= Float.min max_x 64.0 do
    pts := float_of_int !i :: !pts;
    incr i
  done;
  let x = ref 64.0 in
  while !x <= max_x do
    pts := !x :: !pts;
    x := !x *. 1.5
  done;
  List.sort_uniq Float.compare !pts

(** f(0) = 0 and f(x) >= 0 on the grid. *)
let check_nonnegative ?max_x f =
  let viols = ref [] in
  let f0 = Cost_function.eval f 0.0 in
  if Float.abs f0 > 1e-12 then
    viols := { property = "f(0)=0"; at = 0.0; detail = Printf.sprintf "f(0)=%g" f0 } :: !viols;
  List.iter
    (fun x ->
      let v = Cost_function.eval f x in
      if v < 0.0 then
        viols :=
          { property = "non-negative"; at = x; detail = Printf.sprintf "f(x)=%g" v }
          :: !viols)
    (grid ?max_x ());
  List.rev !viols

(** f non-decreasing on consecutive grid points. *)
let check_increasing ?max_x f =
  let pts = grid ?max_x () in
  let viols = ref [] in
  let rec go = function
    | a :: (b :: _ as rest) ->
        let fa = Cost_function.eval f a and fb = Cost_function.eval f b in
        if fb < fa -. 1e-9 *. Float.max 1.0 (Float.abs fa) then
          viols :=
            {
              property = "increasing";
              at = b;
              detail = Printf.sprintf "f(%g)=%g > f(%g)=%g" a fa b fb;
            }
            :: !viols;
        go rest
    | _ -> ()
  in
  go (0.0 :: pts);
  List.rev !viols

(** Midpoint convexity on consecutive grid triples:
    f(b) <= (f(a)+f(c))/2 whenever b=(a+c)/2 — checked on equispaced
    integer triples, which suffices for the integer arguments the
    algorithms use. *)
let check_convex ?(max_x = 10_000.0) f =
  let viols = ref [] in
  let n = int_of_float (Float.min max_x 256.0) in
  for x = 1 to n - 1 do
    let a = float_of_int (x - 1) and b = float_of_int x and c = float_of_int (x + 1) in
    let lhs = Cost_function.eval f b in
    let rhs = (Cost_function.eval f a +. Cost_function.eval f c) /. 2.0 in
    if lhs > rhs +. 1e-9 *. Float.max 1.0 rhs then
      viols :=
        {
          property = "convex";
          at = b;
          detail = Printf.sprintf "f(%g)=%g > midpoint %g" b lhs rhs;
        }
        :: !viols
  done;
  List.rev !viols

(** Analytic derivative consistency with central differences. *)
let check_derivative ?(max_x = 10_000.0) ?(tol = 1e-4) f =
  let viols = ref [] in
  List.iter
    (fun x ->
      let h = 1e-5 *. Float.max 1.0 x in
      let numeric =
        (Cost_function.eval f (x +. h) -. Cost_function.eval f (Float.max 0.0 (x -. h)))
        /. (h +. Float.min x h)
      in
      let analytic = Cost_function.deriv f x in
      let scale = Float.max 1.0 (Float.abs analytic) in
      if Float.abs (numeric -. analytic) > tol *. scale then
        viols :=
          {
            property = "derivative";
            at = x;
            detail = Printf.sprintf "analytic=%g numeric=%g" analytic numeric;
          }
          :: !viols)
    (grid ~max_x ());
  List.rev !viols

(** All checks needed for the Theorem 1.1 guarantee.  Derivative
    consistency is skipped for curves with breakpoints (piecewise-linear
    is non-differentiable exactly at breakpoints; the paper allows
    discrete marginals there). *)
let validate_for_guarantee ?max_x f =
  check_nonnegative ?max_x f
  @ check_increasing ?max_x f
  @ check_convex ?max_x f

let is_valid_for_guarantee ?max_x f = validate_for_guarantee ?max_x f = []
