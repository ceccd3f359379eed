(** Landlord / GreedyDual (Young), the deterministic weighted-caching
    baseline.

    Each cached page holds a credit, set on insertion (and refreshed on
    hits) to the page's weight.  To evict, decrease every credit by the
    minimum credit delta and evict a zero-credit page.  With weight
    [w_i] per user this is k-competitive for weighted caching — the
    linear special case of the paper's model.

    The uniform credit decrease is implemented with a global offset
    [level]: stored priority = credit-at-set + level-at-set, current
    credit = priority - level, so eviction is O(log k).

    Two weight modes make it a cost-aware-but-uncoupled baseline for
    the experiments (it lacks ALG-DISCRETE's same-user budget bump):

    - [Static]: weight = f_i(1), the cost of the user's first miss;
    - [Adaptive]: weight = marginal cost f_i(m_i+1) - f_i(m_i) at the
      user's current eviction count.

    Either way the weights sit in a per-user [floatarray], so a hit or
    an insert evaluates no cost function; [Adaptive] moves a user's
    weight on each of its evictions through
    {!Ccache_cost.Cost_function.Marginals}, with one evaluation. *)

module Policy = Ccache_sim.Policy

open Ccache_trace
module Heap = Ccache_util.Indexed_heap
module Interner = Ccache_util.Interner
module Cf = Ccache_cost.Cost_function

type weight_mode = Static | Adaptive

let mode_name = function Static -> "static" | Adaptive -> "adaptive"

let make ~mode =
  Policy.make
    ~name:(Printf.sprintf "landlord-%s" (mode_name mode))
    (fun config ->
      let ranks = config.Policy.Config.ranks in
      let heap = Heap.create ~n:(Interner.length ranks) () in
      let level = ref 0.0 in
      let n_users = config.Policy.Config.n_users in
      let slot u = Stdlib.min u n_users in
      let costs = Array.init (n_users + 1) (Policy.Config.cost config) in
      (* [Static] is f(1) itself, not [marginal f 1], which differs
         from it for a [custom] f with f(0) <> 0 *)
      let marginals, weights =
        match mode with
        | Static ->
            (None, Float.Array.map_from_array (fun f -> Cf.eval f 1.0) costs)
        | Adaptive ->
            let m = Cf.Marginals.create costs in
            (Some m, Cf.Marginals.rates m)
      in
      let set_credit page =
        let key = Interner.find ranks (Page.pack page) in
        let w = Float.Array.get weights (slot (Page.user page)) in
        Heap.set heap ~key ~prio:(w +. !level)
        [@@effects.no_alloc] [@@effects.deterministic]
      in
      {
        Policy.on_hit = (fun ~pos:_ page -> set_credit page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            (* all credits drop by the victim's remaining credit *)
            level := Heap.min_prio_exn heap;
            Page.unpack (Interner.key ranks (Heap.min_key_exn heap)));
        on_insert = (fun ~pos:_ page -> set_credit page);
        on_evict =
          (fun ~pos:_ page ->
            (match marginals with
            | Some m -> Cf.Marginals.advance m (slot (Page.user page))
            | None -> ());
            Heap.remove heap (Interner.find ranks (Page.pack page)));
      })

let static = make ~mode:Static
let adaptive = make ~mode:Adaptive
