(** ALG-DISCRETE with O(log k) evictions (DESIGN.md decision 2).

    Figure 3's eviction touches every cached budget (uniform [-delta]
    plus a same-owner bump), which makes the reference implementation
    O(k) per eviction.  Both updates are rank-preserving within a user,
    so we decompose

      [B(p) = raw(p) - Y + U(user p)]

    where [Y] accumulates all uniform subtractions and [U(i)] all of
    user [i]'s bumps; [raw(p)] is written once per access.  Budgets
    then live in per-user min-heaps over [raw] (page ids are unique
    within a user, giving the same deterministic tie-break as
    {!Budget_state.min_budget}), with a top-level heap over users keyed
    by [min raw(i) + U(i)] (the common [-Y] cannot change the order).
    The bump [U(i)] takes is the step between the owner's next two
    discrete marginals, which {!Ccache_cost.Cost_function.Marginals}
    keeps per user, so an eviction costs one cost evaluation.

    With integer-valued cost marginals the arithmetic is exact and this
    policy is bit-for-bit identical to {!Alg_discrete.policy}
    (property-tested); with general float costs ties may resolve
    differently, changing victims but not the algorithm's guarantees. *)

module Policy = Ccache_sim.Policy
module Cf = Ccache_cost.Cost_function
module Heap = Ccache_util.Indexed_heap
open Ccache_trace

let name = "alg-discrete-fast"

let policy =
  Policy.make ~name (fun config ->
      let n_users = config.Policy.Config.n_users in
      let n_slots = n_users + 1 (* + flush dummy *) in
      let per_user = Array.init n_slots (fun _ -> Heap.create ()) in
      let top = Heap.create ~capacity:n_slots () in
      (* [y_off] lives in a one-cell floatarray: a [float ref] would box
         a fresh float on every eviction. *)
      let y_off = Float.Array.make 1 0.0 in
      let u_off = Array.make n_slots 0.0 in
      let slot u = Stdlib.min u n_users in
      (* f'_i(m_i + 1) for every slot at its eviction count m_i: touch
         reads it on every request, and an eviction moves it with one
         cost evaluation. *)
      let marginals =
        Cf.Marginals.create (Array.init n_slots (Policy.Config.cost config))
      in
      let rate1 = Cf.Marginals.rates marginals in
      (* keep the top-level entry for user-slot [s] in sync *)
      let sync_top s =
        if Heap.is_empty per_user.(s) then begin
          if Heap.mem top s then Heap.remove top s
        end
        else
          Heap.set top ~key:s ~prio:(Heap.min_prio_exn per_user.(s) +. u_off.(s))
      in
      let touch page =
        let u = Page.user page in
        let s = slot u in
        let target = Float.Array.get rate1 s in
        let raw = target +. Float.Array.get y_off 0 -. u_off.(s) in
        let heap = per_user.(s) and key = Page.id page in
        (* The top entry is [min raw + U(s)] and only [evict] moves
           [U(s)], so it changes only if [key] was or becomes the
           minimum (an empty heap makes it the minimum). *)
        let was_min = (not (Heap.is_empty heap)) && Heap.min_key_exn heap = key in
        Heap.set heap ~key ~prio:raw;
        if was_min || Heap.min_key_exn heap = key then sync_top s
        [@@effects.no_alloc] [@@effects.deterministic]
      in
      (* Named (rather than inlined into the record) so the static
         analyzer has a node to pin the hot-path contracts on. *)
      let evict ~pos victim =
        let u = Page.user victim in
        let s = slot u in
        let raw = Heap.priority per_user.(s) (Page.id victim) in
        let delta = raw -. Float.Array.get y_off 0 +. u_off.(s) in
        Heap.remove per_user.(s) (Page.id victim);
        let old_rate = Float.Array.get rate1 s in
        Cf.Marginals.advance marginals s;
        let bump = Float.Array.get rate1 s -. old_rate in
        Float.Array.set y_off 0 (Float.Array.get y_off 0 +. delta);
        u_off.(s) <- u_off.(s) +. bump;
        (* only the owner's top entry changes: every other user's
           key [min raw + U] is untouched by Y *)
        sync_top s;
        if Ccache_obs.Control.enabled () then begin
          (* Decision telemetry mirrors Alg_discrete.record_evict,
             except the candidate set here is what the heaps
             actually scanned: the top heap (one entry per user
             with cached pages) — O(log k) work, not O(k). *)
          let module M = Ccache_obs.Metrics in
          M.incr (name ^ "/evictions");
          M.observe (name ^ "/charge") delta;
          M.observe (name ^ "/charge/user" ^ string_of_int u) delta;
          M.observe ~bounds:Alg_discrete.candidate_bounds
            (name ^ "/candidate-users")
            (float_of_int (Heap.length top));
          M.incr (name ^ "/owner-bumps");
          Ccache_obs.Span.instant ~cat:"alg"
            ~args:
              [
                ("pos", Ccache_obs.Sink.Int pos);
                ("owner", Ccache_obs.Sink.Int u);
                ("charge", Ccache_obs.Sink.Float delta);
              ]
            (name ^ "/evict")
        end
        [@@effects.no_alloc] [@@effects.deterministic]
      in
      {
        Policy.on_hit = (fun ~pos:_ page -> touch page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            let s = Heap.min_key_exn top in
            let pid = Heap.min_key_exn per_user.(s) in
            (* user-slot s only holds pages of user s (the dummy slot
               holds dummy pages whose user id is exactly n_users) *)
            Page.make ~user:s ~id:pid);
        on_insert = (fun ~pos:_ page -> touch page);
        on_evict = evict;
      })
