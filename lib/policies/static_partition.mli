(** Static memory partitioning: fixed per-tenant slices with LRU
    inside — the "inherently wasteful" strawman of the paper's
    introduction.  Uses the engine's early-eviction hook because a
    slice can fill before the shared cache does. *)

val slice_sizes : k:int -> n_users:int -> int array
(** Equal split: each tenant gets [k / n_users] slots, and the first
    [k mod n_users] tenants one more.  Exposed for tests. *)

val equal_split : Ccache_sim.Policy.t
