(** Per-tenant miss-cost functions [f_i].

    The paper's model associates with each user [i] a differentiable,
    convex, increasing, non-negative function [f_i] with [f_i(0) = 0];
    [f_i(x)] is the cost paid when the user suffers [x] misses.  The
    algorithms need three views of a cost function:

    - [eval f x]      — the cost f(x);
    - [deriv f x]     — the analytic derivative f'(x);
    - [marginal f x]  — the discrete difference f(x) - f(x-1), which
      Section 2.5 of the paper notes may replace the derivative (and is
      the only meaningful choice for non-differentiable SLA curves).

    The competitive guarantee depends on the curvature constant
    [alpha = sup_x x f'(x) / f(x)]; [alpha] below returns the closed form
    where one is known and otherwise a numeric supremum over a grid. *)

type shape =
  | Linear of float  (** slope w: f(x) = w*x (weighted caching) *)
  | Monomial of float  (** exponent beta: f(x) = x^beta, beta >= 1 *)
  | Polynomial of float array
      (** non-negative coefficients c, f(x) = sum_d c.(d) * x^d *)
  | Piecewise_linear of (float * float) array
      (** breakpoints [(x_j, slope_j)]: slope [slope_j] applies on
          [x >= x_j]; see {!Piecewise}. Convex iff slopes increase. *)
  | Exponential of { rate : float; scale : float }
      (** f(x) = scale * (exp(rate*x) - 1); convex, but alpha is
          unbounded — useful to exercise the "arbitrary cost" mode. *)
  | Custom of {
      eval : float -> float;
      deriv : float -> float;
      alpha : float option;
    }

type t = { name : string; shape : shape }

let name t = t.name

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let require_finite ~fn ~field v =
  if not (Float.is_finite v) then
    invalid_arg
      (Printf.sprintf "Cost_function.%s: %s = %g is not finite" fn field v)

let linear ~slope () =
  require_finite ~fn:"linear" ~field:"slope" slope;
  if slope < 0.0 then invalid_arg "Cost_function.linear: negative slope";
  { name = Printf.sprintf "linear(w=%g)" slope; shape = Linear slope }

let monomial ~beta () =
  require_finite ~fn:"monomial" ~field:"beta" beta;
  if beta < 1.0 then invalid_arg "Cost_function.monomial: beta must be >= 1";
  { name = Printf.sprintf "x^%g" beta; shape = Monomial beta }

let polynomial coeffs =
  if Array.length coeffs = 0 then invalid_arg "Cost_function.polynomial: empty";
  Array.iter
    (fun c ->
      require_finite ~fn:"polynomial" ~field:"coefficient" c;
      if c < 0.0 then invalid_arg "Cost_function.polynomial: negative coefficient")
    coeffs;
  (* Exact check is intended: the constant term is a user-supplied
     constructor argument, not a computed value. *)
  if (coeffs.(0) <> 0.0 [@lint.allow "float-eq"]) then
    invalid_arg "Cost_function.polynomial: constant term must be 0 (f(0)=0)";
  let name =
    String.concat " + "
      (List.filteri (fun _ s -> s <> "")
         (Array.to_list
            (Array.mapi
               (* exact zero only elides the term from the name *)
               (fun d c ->
                 if (c = 0.0 [@lint.allow "float-eq"]) then ""
                 else Printf.sprintf "%gx^%d" c d)
               coeffs)))
  in
  { name; shape = Polynomial coeffs }

let piecewise_linear ?name segments =
  let segs = Piecewise.validate segments in
  let name = Option.value name ~default:"piecewise-linear" in
  { name; shape = Piecewise_linear segs }

let exponential ~rate ~scale () =
  require_finite ~fn:"exponential" ~field:"rate" rate;
  require_finite ~fn:"exponential" ~field:"scale" scale;
  if rate <= 0.0 || scale <= 0.0 then
    invalid_arg "Cost_function.exponential: rate and scale must be positive";
  {
    name = Printf.sprintf "%g(e^{%gx}-1)" scale rate;
    shape = Exponential { rate; scale };
  }

let custom ~name ~eval ~deriv ?alpha () =
  { name; shape = Custom { eval; deriv; alpha } }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let eval t x =
  (* NaN fails `x < 0.0` silently, then poisons every theorem check
     downstream; reject it (and infinities) at the boundary instead. *)
  require_finite ~fn:"eval" ~field:"x" x;
  if x < 0.0 then invalid_arg "Cost_function.eval: negative miss count";
  match t.shape with
  | Linear w -> w *. x
  (* x = 0 exactly is the one point where Float.pow misbehaves (0^0=1);
     nearby values must NOT be snapped to 0. *)
  | Monomial beta ->
      if (x = 0.0 [@lint.allow "float-eq"]) then 0.0 else Float.pow x beta
  | Polynomial coeffs ->
      (* Horner evaluation. *)
      let acc = ref 0.0 in
      for d = Array.length coeffs - 1 downto 0 do
        acc := (!acc *. x) +. coeffs.(d)
      done;
      !acc
  | Piecewise_linear segs -> Piecewise.eval segs x
  | Exponential { rate; scale } -> scale *. (exp (rate *. x) -. 1.0)
  | Custom { eval; _ } -> eval x

let deriv t x =
  require_finite ~fn:"deriv" ~field:"x" x;
  if x < 0.0 then invalid_arg "Cost_function.deriv: negative miss count";
  match t.shape with
  | Linear w -> w
  (* beta is a user-supplied constant; the branch only short-circuits
     the exactly-linear case. *)
  | Monomial beta ->
      if (beta = 1.0 [@lint.allow "float-eq"]) then 1.0
      else beta *. Float.pow x (beta -. 1.0)
  | Polynomial coeffs ->
      let acc = ref 0.0 in
      for d = Array.length coeffs - 1 downto 1 do
        acc := (!acc *. x) +. (float_of_int d *. coeffs.(d))
      done;
      !acc
  | Piecewise_linear segs -> Piecewise.deriv segs x
  | Exponential { rate; scale } -> scale *. rate *. exp (rate *. x)
  | Custom { deriv; _ } -> deriv x

(** Discrete marginal cost of the [x]-th miss: [f(x) - f(x-1)] for
    integer [x >= 1]. *)
let marginal t x =
  if x < 1 then invalid_arg "Cost_function.marginal: x must be >= 1";
  eval t (float_of_int x) -. eval t (float_of_int (x - 1))

(** The paper's objective [sum_i f_i(c_i)]: one left fold from 0.0 in
    user order, so every total in the repository adds its terms in the
    same order. *)
let total costs counts =
  let acc = ref 0.0 in
  Array.iteri
    (fun u c -> acc := !acc +. eval costs.(u) (float_of_int c))
    counts;
  !acc

(** Which derivative notion an algorithm should use. *)
type derivative_mode = Analytic | Discrete

(** [rate t mode x] is f'(x) in [Analytic] mode and f(x)-f(x-1) in
    [Discrete] mode, for integer [x >= 1]. *)
let rate t mode x =
  match mode with
  | Analytic -> deriv t (float_of_int x)
  | Discrete -> marginal t x

(** Per-slot discrete marginals at a moving miss count: one [eval] per
    step, because [next] already holds the subtrahend of the next
    [marginal]. *)
module Marginals = struct
  type cost = t

  type t = {
    costs : cost array;
    counts : int array;
    next : floatarray;  (** f_s(c_s + 1) *)
    rates : floatarray;  (** f_s(c_s + 1) - f_s(c_s) *)
  }

  let create costs =
    let n = Array.length costs in
    {
      costs;
      counts = Array.make n 0;
      next = Float.Array.init n (fun s -> eval costs.(s) 1.0);
      rates = Float.Array.init n (fun s -> marginal costs.(s) 1);
    }

  let rates t = t.rates

  (* [marginal]'s own [eval x -. eval (x - 1)], its second [eval] read
     from [next] *)
  let advance t s =
    let c = t.counts.(s) + 1 in
    t.counts.(s) <- c;
    let f = eval t.costs.(s) (float_of_int (c + 1)) in
    Float.Array.set t.rates s (f -. Float.Array.get t.next s);
    Float.Array.set t.next s f
    [@@effects.no_alloc] [@@effects.deterministic]
end

(* ------------------------------------------------------------------ *)
(* Curvature constant alpha                                            *)
(* ------------------------------------------------------------------ *)

(** [alpha ?max_x t] = sup over x in (0, max_x] of x f'(x)/f(x).

    Closed forms: [Linear _] and [Monomial beta] have alpha = 1 and beta
    respectively; a degree-d polynomial with non-negative coefficients
    has alpha <= d with equality in the x->infinity limit, so we return
    the degree.  A piecewise-linear f has its supremum at a breakpoint
    or at max_x; we evaluate there exactly.  [Exponential _] has
    unbounded alpha; we return the value at [max_x] (documented:
    callers treating alpha as a bound must cap the horizon).  *)
let alpha ?(max_x = 1_000_000.0) t =
  let numeric_sup points =
    List.fold_left
      (fun acc x ->
        if x <= 0.0 then acc
        else
          let fx = eval t x in
          if fx <= 0.0 then acc else Float.max acc (x *. deriv t x /. fx))
      1.0 points
  in
  match t.shape with
  | Linear _ -> 1.0
  | Monomial beta -> beta
  | Polynomial coeffs ->
      let degree = ref 0 in
      Array.iteri (fun d c -> if c > 0.0 then degree := d) coeffs;
      float_of_int !degree
  | Piecewise_linear segs ->
      (* Over the reals, x f'(x)/f(x) can diverge just past a
         breakpoint where f leaves zero (e.g. the hinge SLA), but the
         algorithms only ever evaluate integer miss counts and the
         proof's Claim 2.3 only needs the sup over realised (integer)
         arguments, so we take the integer-restricted supremum.  The
         ratio is monotone within each linear segment, so integers
         adjacent to breakpoints (plus max_x) suffice. *)
      let points =
        Array.to_list segs
        |> List.concat_map (fun (bp, _) ->
               [ floor bp; floor bp +. 1.0; ceil bp; ceil bp +. 1.0 ])
        |> List.filter (fun x -> x >= 1.0 && x <= max_x)
      in
      numeric_sup (Float.round max_x :: points)
  | Exponential { rate; _ } ->
      let x = max_x in
      x *. rate *. exp (rate *. x) /. (exp (rate *. x) -. 1.0)
  | Custom { alpha = Some a; _ } -> a
  | Custom _ ->
      (* Geometric grid over (0, max_x]. *)
      let points = ref [] in
      let x = ref 1e-3 in
      while !x <= max_x do
        points := !x :: !points;
        x := !x *. 1.25
      done;
      numeric_sup !points

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

(** Pointwise scaling by [c > 0]; alpha is unchanged. *)
let scale ~by t =
  require_finite ~fn:"scale" ~field:"by" by;
  if by <= 0.0 then invalid_arg "Cost_function.scale: factor must be positive";
  {
    name = Printf.sprintf "%g*(%s)" by t.name;
    shape =
      Custom
        {
          eval = (fun x -> by *. eval t x);
          deriv = (fun x -> by *. deriv t x);
          alpha = Some (alpha t);
        };
  }

(** Pointwise sum; alpha of the sum is at most the max of the alphas
    (both numerator and denominator add, and the ratio of sums is
    bounded by the max ratio). *)
let sum a b =
  {
    name = Printf.sprintf "(%s)+(%s)" a.name b.name;
    shape =
      Custom
        {
          eval = (fun x -> eval a x +. eval b x);
          deriv = (fun x -> deriv a x +. deriv b x);
          alpha = Some (Float.max (alpha a) (alpha b));
        };
  }
