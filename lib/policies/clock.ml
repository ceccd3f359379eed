(** CLOCK (second-chance FIFO).

    Pages sit on a circular list with a reference bit; the hand sweeps
    from the oldest entry, clearing set bits and evicting the first
    page whose bit is already clear.  Approximates LRU at O(1) hit
    cost — the classical VM page-replacement algorithm. *)

module Policy = Ccache_sim.Policy
open Ccache_trace
module Interner = Ccache_util.Interner
module Rank_list = Ccache_util.Rank_list

let policy =
  Policy.make ~name:"clock" (fun config ->
      let ranks = config.Policy.Config.ranks in
      (* the list front is the hand position: entries cycle from front
         (oldest / next to examine) to back (most recently passed) *)
      let ring = Rank_list.create ~ranks:(Interner.length ranks) ~lists:1 in
      (* reference bit per rank *)
      let referenced = Bytes.make (Interner.length ranks) '\000' in
      let rank page = Interner.find ranks (Page.pack page) in
      {
        Policy.on_hit = (fun ~pos:_ page -> Bytes.set referenced (rank page) '\001');
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            (* sweep: clear bits and rotate until an unreferenced entry
               surfaces.  Terminates within two laps. *)
            let rec sweep () =
              let r = Rank_list.front ring 0 in
              if r >= 0 && Bytes.get referenced r <> '\000' then begin
                Bytes.set referenced r '\000';
                Rank_list.remove ring r;
                Rank_list.push_back ring 0 r;
                sweep ()
              end
              else Page.unpack (Interner.key ranks r)
            in
            sweep ());
        on_insert =
          (fun ~pos:_ page ->
            let r = rank page in
            Bytes.set referenced r '\000';
            Rank_list.push_back ring 0 r);
        on_evict = (fun ~pos:_ page -> Rank_list.remove ring (rank page));
      })
