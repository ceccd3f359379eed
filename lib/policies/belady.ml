(** Belady's MIN (offline): evict the cached page whose next request is
    furthest in the future.

    Optimal for miss *count* with a single user / uniform costs; used as
    the classical offline reference.  Requires the trace index
    ([Policy.needs_future]).

    Each cached page's next-use position is known at its last access
    (that is exactly what [Trace.Index.next_use] stores), so a heap
    keyed by negated next-use gives the furthest page in O(log k). *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Heap = Ccache_util.Indexed_heap
module Interner = Ccache_util.Interner

let policy =
  Policy.make ~needs_future:true ~name:"belady" (fun config ->
      let index =
        match config.Policy.Config.index with
        | Some i -> i
        | None -> assert false (* guarded by needs_future *)
      in
      let ranks = config.Policy.Config.ranks in
      let heap = Heap.create ~n:(Interner.length ranks) () in
      let touch ~pos page =
        let key = Interner.find ranks (Page.pack page) in
        let next = Trace.Index.next_use index pos in
        let prio = if next = Int.max_int then Float.neg_infinity else -.float_of_int next in
        Heap.set heap ~key ~prio
      in
      {
        Policy.on_hit = (fun ~pos page -> touch ~pos page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            Page.unpack (Interner.key ranks (Heap.min_key_exn heap)));
        on_insert = (fun ~pos page -> touch ~pos page);
        on_evict =
          (fun ~pos:_ page ->
            Heap.remove heap (Interner.find ranks (Page.pack page)));
      })
