(** Static memory partitioning: fixed per-tenant slices with LRU
    inside — the "inherently wasteful" strawman of the paper's
    introduction.  Uses the engine's early-eviction hook because a
    slice can fill before the shared cache does. *)

val slice_sizes : k:int -> n_users:int -> weights:float array option -> int array
(** Proportional-with-floor allocation; every tenant gets >= 1 slot
    when [k >= n_users].  Exposed for tests. *)

val equal_split : Ccache_sim.Policy.t
