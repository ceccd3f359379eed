(** Randomized marking (Fiat et al.): uniformly random unmarked
    victim; the classical O(log k)-competitive randomized paging
    algorithm, seeded with the constant 42. *)

val policy : Ccache_sim.Policy.t
