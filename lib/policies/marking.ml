(** Deterministic marking algorithm.

    Pages are marked on access; victims are chosen among unmarked pages
    (FIFO order within the unmarked set, making the policy
    deterministic).  When every cached page is marked, a new phase
    begins: all marks are cleared.  k-competitive, and the phase
    structure makes it a useful structural contrast to LRU in the
    experiments. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Interner = Ccache_util.Interner
module Rank_list = Ccache_util.Rank_list

(* the two lists: unmarked pages in FIFO order, and the marked pages *)
let unmarked = 0
let marked = 1

let policy =
  Policy.make ~name:"marking" (fun config ->
      let ranks = config.Policy.Config.ranks in
      let lists = Rank_list.create ~ranks:(Interner.length ranks) ~lists:2 in
      let rank page = Interner.find ranks (Page.pack page) in
      let page_of r = Page.unpack (Interner.key ranks r) in
      let mark page =
        let r = rank page in
        if Rank_list.owner lists r <> marked then begin
          if Rank_list.owner lists r = unmarked then Rank_list.remove lists r;
          Rank_list.push_back lists marked r
        end
      in
      let new_phase () =
        (* all marks drop; marked pages become unmarked in deterministic
           (sorted) order so phase boundaries do not depend on the order
           they were marked in *)
        Rank_list.to_list lists marked
        |> List.sort (fun a b -> Page.compare (page_of a) (page_of b))
        |> List.iter (fun r ->
               Rank_list.remove lists r;
               Rank_list.push_back lists unmarked r)
      in
      {
        Policy.on_hit = (fun ~pos:_ page -> mark page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            if Rank_list.length lists unmarked = 0 then new_phase ();
            page_of (Rank_list.front lists unmarked));
        on_insert = (fun ~pos:_ page -> mark page);
        on_evict = (fun ~pos:_ page -> Rank_list.remove lists (rank page));
      })
