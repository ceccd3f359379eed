(** ALG-DISCRETE with O(log k) evictions (DESIGN.md decision 2).

    Figure 3's eviction touches every cached budget; both updates are
    rank-preserving within a user, so budgets decompose as
    [B(p) = raw(p) - Y + U(user p)] with a global decay accumulator
    [Y] and per-user bump accumulators [U].  Per-user min-heaps over
    [raw] plus a top-level heap over users keyed by [min raw + U]
    reproduce {!Budget_state.min_budget}'s deterministic order
    exactly.

    With integer-valued cost marginals the arithmetic is exact and
    this policy is bit-for-bit identical to {!Alg_discrete.policy}
    (property-tested); with general float costs ties may resolve
    differently, changing victims but not the guarantees. *)

val policy : Ccache_sim.Policy.t
(** "alg-discrete-fast", discrete marginals. *)
