(** 2Q (Johnson & Shasha, VLDB'94), full version.

    Three structures: [A1in], a FIFO of recently admitted pages;
    [A1out], a ghost FIFO of page identities recently expelled from
    A1in (it holds no cache space); [Am], an LRU of established hot
    pages.  A miss whose page is remembered in A1out goes straight to
    Am (a second touch within the window proves reuse); other misses
    enter A1in.  Victims come from A1in while it exceeds its quota
    Kin = k/4, else from Am's LRU end; A1out remembers Kout = k/2
    pages.

    Filters out one-touch scan traffic that floods plain LRU. *)

module Policy = Ccache_sim.Policy
open Ccache_trace
module Interner = Ccache_util.Interner
module Rank_list = Ccache_util.Rank_list

(* the three lists, newest at the front of each *)
let a1in = 0
let am = 1
let a1out = 2

let policy =
  Policy.make ~name:"2q" (fun config ->
      let k = config.Policy.Config.k in
      let kin = Stdlib.max 1 (k / 4) and kout = Stdlib.max 1 (k / 2) in
      let ranks = config.Policy.Config.ranks in
      let lists = Rank_list.create ~ranks:(Interner.length ranks) ~lists:3 in
      let rank page = Interner.find ranks (Page.pack page) in
      {
        Policy.on_hit =
          (fun ~pos:_ page ->
            (* original 2Q: a hit in A1in does nothing (the queue is
               young by construction) *)
            let r = rank page in
            if Rank_list.owner lists r = am then begin
              Rank_list.remove lists r;
              Rank_list.push_front lists am r
            end);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            let n_in = Rank_list.length lists a1in in
            let queue = if n_in >= kin || Rank_list.length lists am = 0 then a1in else am in
            Page.unpack (Interner.key ranks (Rank_list.back lists queue)));
        on_insert =
          (fun ~pos:_ page ->
            let r = rank page in
            if Rank_list.owner lists r = a1out then begin
              (* promoted: drop the ghost, go to Am *)
              Rank_list.remove lists r;
              Rank_list.push_front lists am r
            end
            else Rank_list.push_front lists a1in r);
        on_evict =
          (fun ~pos:_ page ->
            let r = rank page in
            let from = Rank_list.owner lists r in
            Rank_list.remove lists r;
            if from = a1in then begin
              (* expelled from A1in: remember the identity *)
              Rank_list.push_front lists a1out r;
              if Rank_list.length lists a1out > kout then
                Rank_list.remove lists (Rank_list.back lists a1out)
            end);
      })
