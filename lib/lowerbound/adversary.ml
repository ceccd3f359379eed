(** The adaptive adversary of Theorem 1.4.

    Instance: n users, one page each, cache size k = n - 1.  After a
    warm-up that fills the cache with pages 0..n-2, every step requests
    exactly the page missing from the online algorithm's cache, forcing
    an eviction per step.  The request sequence depends on the
    algorithm, so the adversary feeds it one request at a time to an
    {!Ccache_sim.Engine.Step} and reads each victim off the engine's
    events: the page just evicted is the one now missing.

    Returns both the induced trace — a perfectly ordinary trace that
    offline comparators can then be run on — and the online
    algorithm's per-user miss counts. *)

module Policy = Ccache_sim.Policy
module Engine = Ccache_sim.Engine
open Ccache_trace

type outcome = {
  trace : Trace.t;
  online_misses : int array;  (** per user *)
  online_evictions : int array;
  k : int;
}

(** Drive [policy] for [steps] adversarial requests (after the n-1
    warm-up requests, which are also part of the returned trace).

    @param costs per-user cost functions, made visible to cost-aware
      policies exactly as the engine would. *)
let drive ~n_users ~steps ~costs policy =
  if n_users < 2 then invalid_arg "Adversary.drive: need at least 2 users";
  if Array.length costs <> n_users then
    invalid_arg "Adversary.drive: costs/users mismatch";
  if Policy.needs_future policy then
    invalid_arg "Adversary.drive: offline policies cannot be driven adaptively";
  let k = n_users - 1 in
  (* after the warm-up, user k's page is the one not cached *)
  let missing = ref k in
  let on_event = function
    | Engine.Miss_evict { victim; _ } -> missing := Page.user victim
    | Engine.Hit _ | Engine.Miss_insert _ -> ()
  in
  (* the state is keyed by the n-page universe: page (u, 0) for each
     user u, with dense id u *)
  let universe =
    Trace.of_list ~n_users (List.init n_users (fun u -> Page.make ~user:u ~id:0))
  in
  let st = Engine.Step.init ~on_event ~k ~costs policy universe in
  let requests = ref [] in
  let request u =
    let page = Page.make ~user:u ~id:0 in
    requests := page :: !requests;
    Engine.Step.feed st page
  in
  for u = 0 to k - 1 do
    request u
  done;
  for _ = 1 to steps do
    request !missing
  done;
  let r = Engine.Step.finish st in
  {
    trace = Trace.of_list ~n_users (List.rev !requests);
    online_misses = r.Engine.misses_per_user;
    online_evictions = r.Engine.evictions_per_user;
    k;
  }
