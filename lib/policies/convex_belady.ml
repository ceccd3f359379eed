(** Cost-aware offline heuristic ("convex Belady").

    Victim: the cached page minimising
    [marginal_cost(user) / (next_use - pos)] — prefer evicting pages
    that are cheap for their owner *and* not needed for a long time.
    Pages never requested again have infinite distance and are evicted
    first (cheapest owner first).

    Not optimal (no offline polynomial algorithm is known for the
    convex objective), but a strong upper bound on OPT used by
    {!Ccache_offline.Best_of}. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Heap = Ccache_util.Indexed_heap
module Interner = Ccache_util.Interner
module Rank_set = Ccache_util.Rank_set
module Cf = Ccache_cost.Cost_function

let policy =
  Policy.make ~needs_future:true ~name:"convex-belady" (fun config ->
      let index =
        match config.Policy.Config.index with
        | Some i -> i
        | None -> assert false
      in
      let ranks = config.Policy.Config.ranks in
      let n_ranks = Interner.length ranks in
      let heap = Heap.create ~n:n_ranks () in
      let n_users = config.Policy.Config.n_users in
      let slot u = Stdlib.min u n_users in
      (* each owner's marginal at its eviction count *)
      let marginals =
        Cf.Marginals.create (Array.init (n_users + 1) (Policy.Config.cost config))
      in
      let rates = Cf.Marginals.rates marginals in
      (* the cached ranks, and each one's next-use position, kept to
         recompute scores when a user's marginal cost changes *)
      let cached = Rank_set.create ~ranks:n_ranks in
      let next_use = Array.make n_ranks Int.max_int in
      let marginal user = Float.Array.get rates (slot user) in
      let score ~pos ~next page =
        if next = Int.max_int then
          (* dead page: order by marginal so cheap owners go first, and
             keep all dead pages below any live page *)
          -.1e18 +. marginal (Page.user page)
        else
          let dist = float_of_int (next - pos) in
          marginal (Page.user page) /. Float.max 1.0 dist
      in
      let touch ~pos page =
        let key = Interner.find ranks (Page.pack page) in
        let next = Trace.Index.next_use index pos in
        next_use.(key) <- next;
        if not (Rank_set.mem cached key) then Rank_set.add cached key;
        Heap.set heap ~key ~prio:(score ~pos ~next page)
      in
      (* After a user's eviction count changes, marginals of its other
         cached pages change; refresh them (O(cached-of-user log k),
         acceptable for an offline reference).  The heap breaks ties
         on the key, so its minimum does not depend on the order of
         these updates. *)
      let refresh_user ~pos user =
        for i = 0 to Rank_set.length cached - 1 do
          let key = Rank_set.nth cached i in
          let page = Page.unpack (Interner.key ranks key) in
          if Page.user page = user then
            Heap.update heap ~key ~prio:(score ~pos ~next:next_use.(key) page)
        done
      in
      {
        Policy.on_hit = (fun ~pos page -> touch ~pos page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            Page.unpack (Interner.key ranks (Heap.min_key_exn heap)));
        on_insert = (fun ~pos page -> touch ~pos page);
        on_evict =
          (fun ~pos page ->
            let u = Page.user page in
            Cf.Marginals.advance marginals (slot u);
            let key = Interner.find ranks (Page.pack page) in
            Heap.remove heap key;
            Rank_set.remove cached key;
            refresh_user ~pos u);
      })
