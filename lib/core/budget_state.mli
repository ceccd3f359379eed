(** The budget state machine of ALG-DISCRETE (paper Figure 3).

    The one implementation of Figure 3's updates: the {!Alg_discrete}
    policy (and its E9 ablations), the windowed variant
    {!Alg_windowed} and the dual-instrumented {!Alg_cont} runner all
    drive it, so they provably make identical decisions.

    State: a budget [B(p)] for every cached page and the per-user
    eviction counts [m(i,t)].  [B(p)] equals the residual of the
    gradient condition for [p]'s current interval in ALG-CONT:
    [f'_{i(p)}(m(i(p)) + 1) - sum of y_t over the interval so far]
    (the [z] term is zero for cached pages). *)

open Ccache_trace

type t

val create :
  costs:Ccache_cost.Cost_function.t array ->
  mode:Ccache_cost.Cost_function.derivative_mode ->
  n_users:int ->
  t

val evictions : t -> int -> int
(** m(user): evictions of the user's pages so far. *)

val budget : t -> Page.t -> float option
val cached_count : t -> int

val touch : t -> Page.t -> unit
(** Refresh [B(p) <- f'(m+1)] on a hit or insertion (a new interval
    starts in ALG-CONT terms). *)

val min_budget : t -> Page.t * float
(** Cached page with minimum budget; ties break by {!Page.compare}.
    @raise Invalid_argument on an empty cache. *)

val evict : ?bump:bool -> ?subtract:bool -> t -> Page.t -> float
(** Full Figure-3 eviction update: removes the victim, bumps the
    owner's eviction count, subtracts the victim's budget [delta] from
    every remaining budget and adds [f'(m+2) - f'(m+1)] to the owner's
    remaining pages.  Returns [delta] (the ALG-CONT [y_t] increase).

    The E9 ablation switches each drop one rule: [~bump:false] the
    same-owner marginal increase, [~subtract:false] the uniform decay.
    Both default to [true] (the paper's algorithm).
    @raise Invalid_argument if the victim is not cached. *)

val new_window : t -> unit
(** Windowed-SLA reset ({!Alg_windowed}): zero every eviction count
    and re-base every cached budget to the fresh marginal [f'(1)],
    keeping the cache contents. *)

val budgets : t -> (Page.t * float) list
(** All budgets, sorted by page (for tests). *)
