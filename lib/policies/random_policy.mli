(** Uniform-random eviction, deterministically seeded with the
    constant 42. *)

val policy : Ccache_sim.Policy.t
