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

let policy =
  Policy.make ~name:"randomized-marking" (fun _ ->
      let rng = Prng.create ~seed:42 in
      (* unmarked pages in a dense array for O(1) uniform choice *)
      let unmarked_slots : (Page.t, int) Hashtbl.t = Hashtbl.create 64 in
      let unmarked = ref (Array.make 16 (Page.make ~user:0 ~id:0)) in
      let unmarked_count = ref 0 in
      let marked : unit Page.Tbl.t = Page.Tbl.create 64 in
      let push_unmarked page =
        if not (Hashtbl.mem unmarked_slots page) then begin
          if !unmarked_count = Array.length !unmarked then begin
            let bigger = Array.make (2 * !unmarked_count) page in
            Array.blit !unmarked 0 bigger 0 !unmarked_count;
            unmarked := bigger
          end;
          !unmarked.(!unmarked_count) <- page;
          Hashtbl.replace unmarked_slots page !unmarked_count;
          incr unmarked_count
        end
      in
      let remove_unmarked page =
        match Hashtbl.find_opt unmarked_slots page with
        | None -> ()
        | Some i ->
            let last = !unmarked_count - 1 in
            if i <> last then begin
              let moved = !unmarked.(last) in
              !unmarked.(i) <- moved;
              Hashtbl.replace unmarked_slots moved i
            end;
            Hashtbl.remove unmarked_slots page;
            unmarked_count := last
      in
      let mark page =
        remove_unmarked page;
        Page.Tbl.replace marked page ()
      in
      let new_phase () =
        let pages = Page.Tbl.fold (fun p () acc -> p :: acc) marked [] in
        Page.Tbl.reset marked;
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
            Page.Tbl.remove marked page);
      })
