(** Landlord / GreedyDual (Young) — the deterministic weighted-caching
    baseline: credits refreshed on access, uniformly drained on
    eviction (O(log k) via a global offset).  Cost-aware but without
    ALG-DISCRETE's same-owner coupling. *)

val static : Ccache_sim.Policy.t
(** Weight = f_i(1), the user's first-miss cost. *)

val adaptive : Ccache_sim.Policy.t
(** Weight = the user's current marginal cost. *)
