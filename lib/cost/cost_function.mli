(** Per-tenant miss-cost functions [f_i].

    The paper's model associates with each user [i] a differentiable,
    convex, increasing, non-negative function [f_i] with [f_i(0) = 0];
    [f_i(x)] is the cost paid when the user suffers [x] misses.  The
    algorithms need three views of a cost function: the value
    {!eval}, the analytic derivative {!deriv}, and the discrete
    marginal {!marginal} (Section 2.5 of the paper allows replacing
    derivatives with discrete differences, and for the
    non-differentiable SLA curves that is the natural choice).

    The competitive guarantee depends on the curvature constant
    [alpha = sup_x x f'(x) / f(x)]; see {!alpha} for how it is
    computed per shape. *)

type shape =
  | Linear of float  (** slope w: f(x) = w*x (weighted caching) *)
  | Monomial of float  (** exponent beta: f(x) = x^beta, beta >= 1 *)
  | Polynomial of float array
      (** non-negative coefficients c, f(x) = sum_d c.(d) * x^d;
          c.(0) must be 0 *)
  | Piecewise_linear of (float * float) array
      (** breakpoints [(x_j, slope_j)]: slope [slope_j] applies on
          [x >= x_j]; see {!Piecewise}.  Convex iff slopes increase. *)
  | Exponential of { rate : float; scale : float }
      (** f(x) = scale * (exp(rate*x) - 1); convex, but alpha is
          unbounded — exercises the "arbitrary cost" mode *)
  | Custom of {
      eval : float -> float;
      deriv : float -> float;
      alpha : float option;
    }

type t

val name : t -> string

(** {1 Constructors}

    Each validates its parameters and raises [Invalid_argument] on
    shapes that cannot satisfy f(0) = 0, monotonicity or convexity by
    construction ([custom] is unchecked — see {!Calculus} for runtime
    validation).  Non-finite parameters (NaN, infinities) are rejected
    with a message naming the offending field — a NaN slope would
    otherwise slip past the sign checks and silently poison every
    downstream theorem check. *)

val linear : slope:float -> unit -> t
val monomial : beta:float -> unit -> t
val polynomial : float array -> t
val piecewise_linear : ?name:string -> (float * float) array -> t
val exponential : rate:float -> scale:float -> unit -> t

val custom :
  name:string ->
  eval:(float -> float) ->
  deriv:(float -> float) ->
  ?alpha:float ->
  unit ->
  t

(** {1 Evaluation} *)

val eval : t -> float -> float
(** [eval f x] is f(x). @raise Invalid_argument if [x < 0] or [x] is
    not finite (the error names the field). *)

val deriv : t -> float -> float
(** Analytic derivative (right derivative at piecewise breakpoints).
    Rejects negative and non-finite [x] like {!eval}. *)

val marginal : t -> int -> float
(** [marginal f x] = f(x) - f(x-1), the cost of the [x]-th miss.
    @raise Invalid_argument if [x < 1]. *)

val total : t array -> int array -> float
(** [total costs counts] is the paper's objective [sum_i f_i(c_i)],
    user [i]'s count [counts.(i)] priced by [costs.(i)], added left to
    right from [0.0].
    @raise Invalid_argument if [counts] is longer than [costs]. *)

type derivative_mode = Analytic | Discrete
(** Which derivative notion an algorithm uses (paper Section 2.5). *)

val rate : t -> derivative_mode -> int -> float
(** [rate f mode x] is [deriv f x] in [Analytic] mode and
    [marginal f x] in [Discrete] mode. *)

(** Discrete marginals of a row of cost functions, each at its own
    miss count: one {!eval} per step instead of {!marginal}'s two. *)
module Marginals : sig
  type cost := t
  type t

  val create : cost array -> t
  (** Slot [s] starts at count 0, priced by [costs.(s)]. *)

  val rates : t -> floatarray
  (** The live array: slot [s] holds [marginal costs.(s) (c_s + 1)],
      bit for bit, at its current count [c_s].  Read-only; a
      [floatarray] rather than a float accessor because a float
      returned across modules is boxed. *)

  val advance : t -> int -> unit
  (** [advance m s] moves slot [s]'s count one forward and updates
      its rate with one {!eval}. *)
end

(** {1 Curvature constant} *)

val alpha : ?max_x:float -> t -> float
(** [alpha f] = sup over realisable x of [x * f'(x) / f(x)].

    Closed forms: 1 for linear, beta for monomials, the degree for
    polynomials.  Piecewise-linear shapes take the integer-restricted
    supremum (miss counts are integers; over the reals the ratio
    diverges just past a breakpoint where f leaves zero, e.g. the SLA
    hinge).  Exponentials are unbounded: the value at [max_x]
    (default 1e6) is returned and callers treating alpha as a bound
    must cap the horizon. *)

(** {1 Combinators} *)

val scale : by:float -> t -> t
(** Pointwise scaling by a positive factor; alpha is unchanged. *)

val sum : t -> t -> t
(** Pointwise sum; alpha of the sum is at most the max of the two. *)
