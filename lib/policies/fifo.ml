(** First In First Out: evict the page resident longest, ignoring hits. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Interner = Ccache_util.Interner
module Rank_list = Ccache_util.Rank_list

let policy =
  Policy.make ~name:"fifo" (fun config ->
      let ranks = config.Policy.Config.ranks in
      (* one list, newest at the front *)
      let queue = Rank_list.create ~ranks:(Interner.length ranks) ~lists:1 in
      let rank page = Interner.find ranks (Page.pack page) in
      {
        Policy.on_hit = Policy.no_hit;
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            Page.unpack (Interner.key ranks (Rank_list.back queue 0)));
        on_insert = (fun ~pos:_ page -> Rank_list.push_front queue 0 (rank page));
        on_evict = (fun ~pos:_ page -> Rank_list.remove queue (rank page));
      })
