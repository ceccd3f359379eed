(** ALG-DISCRETE with per-window cost resets, for windowed SLAs
    ({!Ccache_sim.Windows}): at each window boundary the per-user
    eviction counts reset and cached budgets re-base to the fresh
    marginal, restarting the primal-dual state against the new
    window's cost landscape while keeping the cache contents.
    Experiment E14 measures the cumulative-vs-windowed trade. *)

val make : window:int -> unit -> Ccache_sim.Policy.t
(** Discrete marginals, as {!Alg_discrete.policy}.
    @raise Invalid_argument if [window <= 0]. *)
