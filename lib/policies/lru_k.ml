(** LRU-K (O'Neil, O'Neil & Weikum, SIGMOD'93).

    Victim: the cached page whose K-th most recent reference is oldest;
    pages with fewer than K references are evicted first (oldest last
    reference first), matching the paper's backward K-distance with
    infinite distance for short histories.

    Reference history is retained across evictions (the "retained
    information" of the original paper), which is what distinguishes
    LRU-2 from LRU on correlated re-references. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Heap = Ccache_util.Indexed_heap
module Interner = Ccache_util.Interner

(* Priority encoding (min-heap, smallest evicted first):
   - fewer than K references: priority = time_of_last_ref - HUGE
   - at least K references:   priority = time of K-th most recent ref.
   HUGE dominates any trace position, so short-history pages always
   order before full-history ones, oldest-last-ref first. *)
let huge = 1e15

let make ~k_refs =
  if k_refs < 1 then invalid_arg "Lru_k.make: k_refs must be >= 1";
  Policy.make
    ~name:(Printf.sprintf "lru-%d" k_refs)
    (fun config ->
      let ranks = config.Policy.Config.ranks in
      let heap = Heap.create ~n:(Interner.length ranks) () in
      (* the last <= k_refs reference positions of rank r, oldest
         first, in hist.(r * k_refs) .. hist.(r * k_refs + count.(r) - 1) *)
      let hist = Array.make (Interner.length ranks * k_refs) (-1) in
      let count = Array.make (Interner.length ranks) 0 in
      let record key pos =
        let base = key * k_refs and n = count.(key) in
        if n < k_refs then begin
          hist.(base + n) <- pos;
          count.(key) <- n + 1
        end
        else begin
          (* shift left: drop the oldest *)
          Array.blit hist (base + 1) hist base (k_refs - 1);
          hist.(base + k_refs - 1) <- pos
        end
      in
      (* only called after [record], so every rank has a reference *)
      let priority key =
        let base = key * k_refs and n = count.(key) in
        if n < k_refs then float_of_int hist.(base + n - 1) -. huge
        else float_of_int hist.(base)
      in
      let rank page = Interner.find ranks (Page.pack page) in
      {
        Policy.on_hit =
          (fun ~pos page ->
            let key = rank page in
            record key pos;
            Heap.update heap ~key ~prio:(priority key));
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            Page.unpack (Interner.key ranks (Heap.min_key_exn heap)));
        on_insert =
          (fun ~pos page ->
            let key = rank page in
            record key pos;
            Heap.add heap ~key ~prio:(priority key));
        on_evict = (fun ~pos:_ page -> Heap.remove heap (rank page));
      })

let lru_2 = make ~k_refs:2
let lru_3 = make ~k_refs:3
