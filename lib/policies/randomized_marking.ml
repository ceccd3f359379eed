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
module Int_tbl = Ccache_util.Int_tbl

let policy =
  Policy.make ~name:"randomized-marking" (fun _ ->
      let rng = Prng.create ~seed:42 in
      (* unmarked pages in a dense array for O(1) uniform choice, and
         each one's index in it, keyed by packed page *)
      let unmarked_slots = Int_tbl.create () in
      let unmarked = ref (Array.make 16 (Page.make ~user:0 ~id:0)) in
      let unmarked_count = ref 0 in
      (* packed pages of the marked set *)
      let marked = Int_tbl.create () in
      let push_unmarked page =
        if not (Int_tbl.mem unmarked_slots (Page.pack page)) then begin
          if !unmarked_count = Array.length !unmarked then begin
            let bigger = Array.make (2 * !unmarked_count) page in
            Array.blit !unmarked 0 bigger 0 !unmarked_count;
            unmarked := bigger
          end;
          !unmarked.(!unmarked_count) <- page;
          Int_tbl.set unmarked_slots (Page.pack page) !unmarked_count;
          incr unmarked_count
        end
      in
      let remove_unmarked page =
        let i = Int_tbl.find_default unmarked_slots (Page.pack page) ~default:(-1) in
        if i >= 0 then begin
          let last = !unmarked_count - 1 in
          if i <> last then begin
            let moved = !unmarked.(last) in
            !unmarked.(i) <- moved;
            Int_tbl.set unmarked_slots (Page.pack moved) i
          end;
          ignore (Int_tbl.remove unmarked_slots (Page.pack page));
          unmarked_count := last
        end
      in
      let mark page =
        remove_unmarked page;
        Int_tbl.set marked (Page.pack page) 0
      in
      let new_phase () =
        let pages = Int_tbl.fold (fun key _ acc -> Page.unpack key :: acc) marked [] in
        Int_tbl.clear marked;
        List.iter push_unmarked (List.sort Page.compare pages)
      in
      {
        Policy.on_hit = (fun ~pos:_ page -> mark page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            if !unmarked_count = 0 then new_phase ();
            if !unmarked_count = 0 then
              invalid_arg "randomized-marking: choose_victim on empty cache";
            !unmarked.(Prng.int rng !unmarked_count));
        on_insert = (fun ~pos:_ page -> mark page);
        on_evict =
          (fun ~pos:_ page ->
            remove_unmarked page;
            ignore (Int_tbl.remove marked (Page.pack page)));
      })
