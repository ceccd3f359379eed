(** Least Recently Used.

    The classical k-competitive policy (Sleator & Tarjan).  Cost-blind:
    ignores both users and cost functions.  O(1) per event via a
    recency list over the pages' dense ids. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Interner = Ccache_util.Interner
module Rank_list = Ccache_util.Rank_list

let policy =
  Policy.make ~name:"lru" (fun config ->
      let ranks = config.Policy.Config.ranks in
      (* one list, most recent at the front *)
      let recency = Rank_list.create ~ranks:(Interner.length ranks) ~lists:1 in
      let rank page = Interner.find ranks (Page.pack page) in
      {
        Policy.on_hit =
          (fun ~pos:_ page ->
            let r = rank page in
            Rank_list.remove recency r;
            Rank_list.push_front recency 0 r);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            Page.unpack (Interner.key ranks (Rank_list.back recency 0)));
        on_insert = (fun ~pos:_ page -> Rank_list.push_front recency 0 (rank page));
        on_evict = (fun ~pos:_ page -> Rank_list.remove recency (rank page));
      })
