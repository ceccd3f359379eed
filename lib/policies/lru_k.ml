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
    (fun _config ->
      let ranks = Interner.create ~capacity:16 in
      let heap = Heap.create () in
      (* history.(key) = circular buffer of the last <= k_refs reference
         positions, most recent last *)
      let history : (int, int array * int ref) Hashtbl.t = Hashtbl.create 256 in
      let record key pos =
        let buf, len =
          match Hashtbl.find_opt history key with
          | Some h -> h
          | None ->
              let h = (Array.make k_refs (-1), ref 0) in
              Hashtbl.add history key h;
              h
        in
        if !len < k_refs then begin
          buf.(!len) <- pos;
          incr len
        end
        else begin
          (* shift left: drop the oldest *)
          Array.blit buf 1 buf 0 (k_refs - 1);
          buf.(k_refs - 1) <- pos
        end
      in
      let priority key =
        match Hashtbl.find_opt history key with
        | None -> -.huge
        | Some (buf, len) ->
            if !len < k_refs then float_of_int buf.(!len - 1) -. huge
            else float_of_int buf.(0)
      in
      {
        Policy.on_hit =
          (fun ~pos page ->
            let key = Interner.intern ranks (Page.pack page) in
            record key pos;
            Heap.update heap ~key ~prio:(priority key));
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            Page.unpack (Interner.key ranks (Heap.min_key_exn heap)));
        on_insert =
          (fun ~pos page ->
            let key = Interner.intern ranks (Page.pack page) in
            record key pos;
            Heap.add heap ~key ~prio:(priority key));
        on_evict =
          (fun ~pos:_ page ->
            let key = Interner.intern ranks (Page.pack page) in
            Heap.remove heap key);
      })

let lru_2 = make ~k_refs:2
let lru_3 = make ~k_refs:3
