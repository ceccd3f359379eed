(** ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

    Four lists: resident [T1] (recency: seen once recently) and [T2]
    (frequency: seen at least twice), plus ghost histories [B1]/[B2]
    of pages recently evicted from T1/T2.  A tunable target [p] splits
    the cache between T1 and T2; ghost hits move it — a B1 hit says
    "recency is winning, grow p", a B2 hit the opposite — which is the
    self-tuning that made ARC famous.

    Adaptation to the engine contract: placement decisions happen in
    [on_insert] (ghost membership decides T1 vs T2 and adapts p);
    victims follow the REPLACE procedure (evict T1's LRU when
    |T1| > p, else T2's LRU).  Ghost lists are capped so that
    |T1|+|B1| <= k and the four lists total <= 2k, as in the paper. *)

module Policy = Ccache_sim.Policy
open Ccache_trace
module Interner = Ccache_util.Interner
module Rank_list = Ccache_util.Rank_list

(* the four lists, most recent at the front of each *)
let t1 = 0
let t2 = 1
let b1 = 2
let b2 = 3

let policy =
  Policy.make ~name:"arc" (fun config ->
      let k = config.Policy.Config.k in
      let ranks = config.Policy.Config.ranks in
      let lists = Rank_list.create ~ranks:(Interner.length ranks) ~lists:4 in
      let len l = Rank_list.length lists l in
      let rank page = Interner.find ranks (Page.pack page) in
      let p = ref 0.0 (* target size of T1, in [0, k] *) in
      (* move a rank from whatever list holds it to the front of [l] *)
      let move_front r l =
        Rank_list.remove lists r;
        Rank_list.push_front lists l r
      in
      (* drop a ghost from the LRU end of B1 or B2 *)
      let trim_ghost l =
        let r = Rank_list.back lists l in
        if r >= 0 then Rank_list.remove lists r
      in
      {
        Policy.on_hit =
          (fun ~pos:_ page ->
            (* resident hit: promote to T2 MRU *)
            move_front (rank page) t2);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming ->
            (* REPLACE: prefer T1 when it exceeds the target p (with the
               paper's tie nudge toward T1 if the incoming page is a B2
               ghost), else T2 *)
            let incoming_in_b2 =
              Rank_list.owner lists (rank incoming) = b2
            in
            let t1_len = float_of_int (len t1) in
            let from_t1 =
              len t1 > 0
              && (t1_len > !p || (incoming_in_b2 && t1_len = !p) || len t2 = 0)
            in
            let queue = if from_t1 then t1 else t2 in
            Page.unpack (Interner.key ranks (Rank_list.back lists queue)));
        on_insert =
          (fun ~pos:_ page ->
            let r = rank page in
            let l = Rank_list.owner lists r in
            if l = b1 then begin
              (* recency ghost hit: grow p by max(1, |B2|/|B1|) *)
              let d =
                Float.max 1.0 (float_of_int (len b2) /. float_of_int (Stdlib.max 1 (len b1)))
              in
              p := Float.min (float_of_int k) (!p +. d);
              move_front r t2
            end
            else if l = b2 then begin
              (* frequency ghost hit: shrink p *)
              let d =
                Float.max 1.0 (float_of_int (len b1) /. float_of_int (Stdlib.max 1 (len b2)))
              in
              p := Float.max 0.0 (!p -. d);
              move_front r t2
            end
            else begin
              (* brand new page goes to T1 (a resident one raises in
                 push_front); keep |T1|+|B1| <= k and the directory
                 total <= 2k, as in the paper's Case IV *)
              if len t1 + len b1 >= k then trim_ghost b1
              else if len t1 + len t2 + len b1 + len b2 >= 2 * k then trim_ghost b2;
              Rank_list.push_front lists t1 r
            end);
        on_evict =
          (fun ~pos:_ page ->
            (* resident page leaves the cache: its identity becomes a
               ghost in the matching history list *)
            let r = rank page in
            let l = Rank_list.owner lists r in
            if l = t1 then move_front r b1
            else if l = t2 then move_front r b2
            else invalid_arg ("arc: evicting non-resident " ^ Page.to_string page));
      })
