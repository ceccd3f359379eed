(** Static memory partitioning: each tenant owns a fixed slice of the
    cache, managed by LRU internally.

    This is the strawman of the paper's introduction ("static memory
    allocations are inherently wasteful"): capacity reserved for an
    idle tenant cannot be used by a busy one.  A tenant whose slice is
    full evicts its own LRU page even when other slices have free
    space, which is why this policy needs the engine's early-eviction
    hook.

    Slice sizes: an equal split, with the [k mod n_users] leftover
    slots going one each to the first tenants. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Interner = Ccache_util.Interner
module Rank_list = Ccache_util.Rank_list

let slice_sizes ~k ~n_users =
  Array.init n_users (fun u -> (k / n_users) + if u < k mod n_users then 1 else 0)

let equal_split =
  Policy.make ~name:"static-partition" (fun config ->
      let n_users = config.Policy.Config.n_users in
      let k = config.Policy.Config.k in
      let sizes = slice_sizes ~k ~n_users in
      let ranks = config.Policy.Config.ranks in
      (* one LRU list per user, most recent at the front; the flush
         dummy user (id = n_users) has the last one *)
      let slices = Rank_list.create ~ranks:(Interner.length ranks) ~lists:(n_users + 1) in
      let occupancy u = Rank_list.length slices u in
      let rank page = Interner.find ranks (Page.pack page) in
      let slice_of page = Stdlib.min (Page.user page) n_users in
      (* the flush dummy user gets quota k so its requests displace real
         pages (via the over-quota branch) instead of each other *)
      let quota u = if u >= n_users then k else sizes.(u) in
      let full u = occupancy u >= quota u && occupancy u > 0 in
      (* victim for an incoming page of user u: u's own LRU page if u's
         slice is at quota; otherwise (u under quota but cache full,
         possible for the zero-quota dummy) the LRU page of the most
         over-quota tenant *)
      let victim_for u =
        let from =
          if full u then u
          else begin
            let worst = ref (-1) and worst_excess = ref min_int in
            for v = 0 to n_users do
              let excess = occupancy v - quota v in
              if occupancy v > 0 && excess > !worst_excess then begin
                worst := v;
                worst_excess := excess
              end
            done;
            !worst
          end
        in
        Page.unpack (Interner.key ranks (Rank_list.back slices from))
      in
      {
        Policy.on_hit =
          (fun ~pos:_ page ->
            let r = rank page in
            Rank_list.remove slices r;
            Rank_list.push_front slices (slice_of page) r);
        wants_evict = (fun ~pos:_ ~incoming -> full (slice_of incoming));
        choose_victim = (fun ~pos:_ ~incoming -> victim_for (slice_of incoming));
        on_insert =
          (fun ~pos:_ page -> Rank_list.push_front slices (slice_of page) (rank page));
        on_evict = (fun ~pos:_ page -> Rank_list.remove slices (rank page));
      })
