(** Least Frequently Used (in-cache frequency, reset on eviction).

    Victim: the cached page with the fewest hits since insertion, ties
    broken deterministically by dense id (the page the trace requested
    first goes first).  A cached page's hit count is its heap priority
    (exact: counts stay far below 2^53), so no separate frequency table
    is kept. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Heap = Ccache_util.Indexed_heap
module Interner = Ccache_util.Interner

let policy =
  Policy.make ~name:"lfu" (fun config ->
      let ranks = config.Policy.Config.ranks in
      let heap = Heap.create ~n:(Interner.length ranks) () in
      let rank page = Interner.find ranks (Page.pack page) in
      {
        Policy.on_hit =
          (fun ~pos:_ page ->
            let key = rank page in
            Heap.update heap ~key ~prio:(Heap.priority heap key +. 1.0));
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            Page.unpack (Interner.key ranks (Heap.min_key_exn heap)));
        on_insert = (fun ~pos:_ page -> Heap.add heap ~key:(rank page) ~prio:1.0);
        on_evict = (fun ~pos:_ page -> Heap.remove heap (rank page));
      })
