(** Randomized marking (Fiat et al.): marking with a uniformly random
    unmarked victim.

    The classical O(log k)-competitive randomized paging algorithm —
    the integral counterpart of the fractional exponential-update
    scheme (see {!Ccache_core.Alg_fractional}).  Seeded with the
    constant 42, so runs are reproducible; against the
    Theorem 1.4 adversary it only helps in expectation, and since our
    adversary reacts to the realised cache state, single runs still
    thrash — the textbook oblivious-vs-adaptive adversary distinction,
    visible in E4 if run with this policy. *)

module Policy = Ccache_sim.Policy
open Ccache_trace
module Prng = Ccache_util.Prng
module Interner = Ccache_util.Interner
module Rank_set = Ccache_util.Rank_set

let policy =
  Policy.make ~name:"randomized-marking" (fun config ->
      let ranks = config.Policy.Config.ranks in
      let rng = Prng.create ~seed:42 in
      (* the cached pages' ranks, split into the unmarked ones (the
         victim is drawn from this set's order) and the marked ones *)
      let unmarked = Rank_set.create ~ranks:(Interner.length ranks) in
      let marked = Rank_set.create ~ranks:(Interner.length ranks) in
      let rank page = Interner.find ranks (Page.pack page) in
      let page r = Page.unpack (Interner.key ranks r) in
      let mark p =
        let r = rank p in
        if Rank_set.mem unmarked r then Rank_set.remove unmarked r;
        if not (Rank_set.mem marked r) then Rank_set.add marked r
      in
      (* a new phase unmarks every page, in page order *)
      let new_phase () =
        let phase = Array.init (Rank_set.length marked) (Rank_set.nth marked) in
        Array.iter (Rank_set.remove marked) phase;
        Array.sort (fun a b -> Page.compare (page a) (page b)) phase;
        Array.iter (Rank_set.add unmarked) phase
      in
      {
        Policy.on_hit = (fun ~pos:_ p -> mark p);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            if Rank_set.length unmarked = 0 then new_phase ();
            let n = Rank_set.length unmarked in
            if n = 0 then invalid_arg "randomized-marking: choose_victim on empty cache";
            page (Rank_set.nth unmarked (Prng.int rng n)));
        on_insert = (fun ~pos:_ p -> mark p);
        on_evict =
          (fun ~pos:_ p ->
            let r = rank p in
            if Rank_set.mem unmarked r then Rank_set.remove unmarked r
            else Rank_set.remove marked r);
      })
