(** ALG-DISCRETE with O(log k) evictions (DESIGN.md decision 2).

    Figure 3's eviction touches every cached budget (uniform [-delta]
    plus a same-owner bump), which makes the reference implementation
    O(k) per eviction.  Both updates are rank-preserving within a user,
    so we decompose

      [B(p) = raw(p) - Y + U(user p)]

    where [Y] accumulates all uniform subtractions and [U(i)] all of
    user [i]'s bumps; [raw(p)] is written once per access.  Budgets
    then live in per-user min-heaps over [raw], with a top-level heap
    over users keyed by [min raw(i) + U(i)] (the common [-Y] cannot
    change the order).  A user's heap numbers that user's pages 0, 1,
    ... in the trace's first-touch order and breaks ties on the page
    id (unique within a user), which is {!Budget_state.min_budget}'s
    deterministic tie-break; all the per-user heaps together index P
    pages, not P per user.
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
module Interner = Ccache_util.Interner
open Ccache_trace

let name = "alg-discrete-fast"

let policy =
  Policy.make ~name (fun config ->
      let n_users = config.Policy.Config.n_users in
      let n_slots = n_users + 1 (* + flush dummy *) in
      (* an int comparison: [Stdlib.min] is polymorphic, a C call *)
      let slot u = if u < n_users then u else n_users in
      (* One pass over the key space: [local.(r)] numbers the page of
         rank r within its user-slot, in first-touch order, and
         [ids.(s).(i)] (grown by doubling) is the page id of slot s's
         page i, its heap's tie value. *)
      let ranks = config.Policy.Config.ranks in
      let n_pages = Interner.length ranks in
      let local = Array.make n_pages 0 in
      let counts = Array.make n_slots 0 and ids = Array.make n_slots [||] in
      for r = 0 to n_pages - 1 do
        let page = Page.unpack (Interner.key ranks r) in
        let s = slot (Page.user page) in
        let i = counts.(s) in
        if i = Array.length ids.(s) then begin
          let bigger = Array.make (Stdlib.max 8 (2 * i)) 0 in
          Array.blit ids.(s) 0 bigger 0 i;
          ids.(s) <- bigger
        end;
        ids.(s).(i) <- Page.id page;
        local.(r) <- i;
        counts.(s) <- i + 1
      done;
      let per_user = Array.mapi (fun s ties -> Heap.create ~ties ~n:counts.(s) ()) ids in
      let top = Heap.create ~n:n_slots () in
      (* [y_off] lives in a one-cell floatarray: a [float ref] would box
         a fresh float on every eviction. *)
      let y_off = Float.Array.make 1 0.0 in
      let u_off = Array.make n_slots 0.0 in
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
        let heap = per_user.(s) and key = local.(Interner.find ranks (Page.pack page)) in
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
        let key = local.(Interner.find ranks (Page.pack victim)) in
        let raw = Heap.priority per_user.(s) key in
        let delta = raw -. Float.Array.get y_off 0 +. u_off.(s) in
        Heap.remove per_user.(s) key;
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
            (* user-slot s only holds pages of user s (the dummy slot
               holds dummy pages whose user id is exactly n_users) *)
            Page.make ~user:s ~id:ids.(s).(Heap.min_key_exn per_user.(s)));
        on_insert = (fun ~pos:_ page -> touch page);
        on_evict = evict;
      })
