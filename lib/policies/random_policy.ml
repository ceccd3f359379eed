(** Uniform-random eviction (deterministically seeded).

    Every instance seeds with the constant 42, so runs are
    reproducible.
    Maintains a dense array of cached pages with O(1) swap-removal. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Prng = Ccache_util.Prng
module Int_tbl = Ccache_util.Int_tbl

let policy =
  Policy.make ~name:"random" (fun _ ->
      let rng = Prng.create ~seed:42 in
      (* packed page -> its index in [pages] *)
      let slots = Int_tbl.create () in
      let pages = ref (Array.make 16 (Page.make ~user:0 ~id:0)) in
      let count = ref 0 in
      let push page =
        if !count = Array.length !pages then begin
          let bigger = Array.make (2 * !count) page in
          Array.blit !pages 0 bigger 0 !count;
          pages := bigger
        end;
        !pages.(!count) <- page;
        Int_tbl.set slots (Page.pack page) !count;
        incr count
      in
      let remove page =
        let i = Int_tbl.find_default slots (Page.pack page) ~default:(-1) in
        if i < 0 then invalid_arg ("random: untracked page " ^ Page.to_string page);
        let last = !count - 1 in
        if i <> last then begin
          let moved = !pages.(last) in
          !pages.(i) <- moved;
          Int_tbl.set slots (Page.pack moved) i
        end;
        ignore (Int_tbl.remove slots (Page.pack page));
        count := last
      in
      {
        Policy.on_hit = Policy.no_hit;
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            if !count = 0 then invalid_arg "random: choose_victim on empty cache";
            !pages.(Prng.int rng !count));
        on_insert = (fun ~pos:_ page -> push page);
        on_evict = (fun ~pos:_ page -> remove page);
      })
