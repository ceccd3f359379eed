(** The adaptive adversary of Theorem 1.4.

    Instance: n users, one page each, cache k = n - 1.  After filling
    the cache with pages 0..n-2, every step requests exactly the page
    missing from the online algorithm's cache.  The sequence depends
    on the algorithm, so the adversary feeds it request by request to
    an {!Ccache_sim.Engine.Step} built over the n-page universe (page
    [(u, 0)] for each user u), and takes
    the next request from the last eviction's victim.  That victim is
    the only uncached page as long as the policy never evicts before
    the cache is full, which holds for every policy E4, [test_lb] and
    [test_offline] drive: all use {!Ccache_sim.Policy.never_evict_early}. *)

type outcome = {
  trace : Ccache_trace.Trace.t;
      (** the induced sequence — an ordinary trace that offline
          comparators can be run on *)
  online_misses : int array;
  online_evictions : int array;
  k : int;
}

val drive :
  n_users:int ->
  steps:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Ccache_sim.Policy.t ->
  outcome
(** [steps] adversarial requests after the n-1 warm-up requests.
    @raise Invalid_argument for fewer than 2 users, a costs mismatch,
    or an offline policy.
    @raise Ccache_sim.Engine.Policy_error if the policy misbehaves. *)
