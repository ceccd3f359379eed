(** Uniform-random eviction (deterministically seeded).

    Every instance seeds with the constant 42, so runs are
    reproducible.  The cached pages' ranks sit in a {!Rank_set}: O(1)
    insert and swap-removal, and the victim is the member at a uniform
    position of its order. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Prng = Ccache_util.Prng
module Interner = Ccache_util.Interner
module Rank_set = Ccache_util.Rank_set

let policy =
  Policy.make ~name:"random" (fun config ->
      let ranks = config.Policy.Config.ranks in
      let rng = Prng.create ~seed:42 in
      let cached = Rank_set.create ~ranks:(Interner.length ranks) in
      let rank page = Interner.find ranks (Page.pack page) in
      {
        Policy.on_hit = Policy.no_hit;
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            let n = Rank_set.length cached in
            if n = 0 then invalid_arg "random: choose_victim on empty cache";
            Page.unpack (Interner.key ranks (Rank_set.nth cached (Prng.int rng n))));
        on_insert = (fun ~pos:_ page -> Rank_set.add cached (rank page));
        on_evict = (fun ~pos:_ page -> Rank_set.remove cached (rank page));
      })
