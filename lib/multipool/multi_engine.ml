(** Multiple memory pools — the paper's future-work extension (§5).

    "Consider the case of multiple memory pools (e.g., each pool
    corresponds to a single physical server), where each user has to be
    assigned to a single pool, with potentially switching cost incurred
    for migrating users between servers."

    Model implemented here:

    - [pools] caches, each of size [pool_size], each an
      {!Ccache_sim.Engine.Step} over the parent trace running its own
      instance of a policy (ALG-DISCRETE by default), so every pool
      keeps the engine's cache contract;
    - every user is assigned to exactly one pool; all its requests are
      fed to that pool's engine;
    - an optional periodic rebalancer migrates users between pools; a
      migration costs [switch_cost] plus the implicit cost of losing
      the user's cached pages (the old pool's engine evicts them).

    Assignment strategies:
    - [Static_round_robin] — user u on pool (u mod pools), never moves;
    - [Greedy_cost] — every [rebalance_every] requests, move the user
      with the highest recent marginal cost pressure to the pool with
      the lowest total recent pressure, if the estimated gain exceeds
      [switch_cost]. *)

module Engine = Ccache_sim.Engine
module Cf = Ccache_cost.Cost_function
open Ccache_trace

type strategy =
  | Static_round_robin
  | Greedy_cost of { rebalance_every : int; switch_cost : float }

let strategy_name = function
  | Static_round_robin -> "static-rr"
  | Greedy_cost { switch_cost; _ } -> Printf.sprintf "greedy(sw=%g)" switch_cost

type result = {
  strategy : string;
  pools : int;
  pool_size : int;
  misses_per_user : int array;
  migrations : int;
  switch_cost_paid : float;
  total_cost : float;  (** sum_i f_i(misses_i) + switch costs *)
}

let run ?(policy = Ccache_core.Alg_discrete.policy) ?initial_assignment
    ~pools:n_pools ~pool_size ~strategy ~costs trace =
  if n_pools <= 0 then invalid_arg "Multi_engine.run: pools must be positive";
  if pool_size <= 0 then invalid_arg "Multi_engine.run: pool_size must be positive";
  let n_users = Trace.n_users trace in
  if Array.length costs <> n_users then
    invalid_arg "Multi_engine.run: costs/users mismatch";
  if Ccache_sim.Policy.needs_future policy then
    invalid_arg "Multi_engine.run: offline policies cannot serve pools";
  let pool_of_user =
    match initial_assignment with
    | None -> Array.init n_users (fun u -> u mod n_pools)
    | Some a ->
        if Array.length a <> n_users then
          invalid_arg "Multi_engine.run: initial_assignment/users mismatch";
        Array.iter
          (fun q ->
            if q < 0 || q >= n_pools then
              invalid_arg "Multi_engine.run: assignment outside pool range")
          a;
        Array.copy a
  in
  let misses = Array.make n_users 0 in
  (* sliding pressure window: marginal cost of each user's recent misses *)
  let pressure = Array.make n_users 0.0 in
  let pool_pressure = Array.make n_pools 0.0 in
  let migrations = ref 0 in
  let switch_paid = ref 0.0 in
  (* Each pool's resident pages, kept from its engine's events and read
     only for a migration's drop list and its warm-up footprint.  Every
     drop runs the policy's eviction update (Figure 3's subtract and
     bump for ALG-DISCRETE), so the drop order, this table's
     [Page.Tbl.fold] order, is part of E10's output; a benchmark change
     that re-records E10 may replace it with a sorted order. *)
  let resident = Array.init n_pools (fun _ -> Page.Tbl.create 64) in
  let on_miss q page =
    let u = Page.user page in
    misses.(u) <- misses.(u) + 1;
    let marginal =
      Cf.eval costs.(u) (float_of_int misses.(u))
      -. Cf.eval costs.(u) (float_of_int (misses.(u) - 1))
    in
    pressure.(u) <- pressure.(u) +. marginal;
    pool_pressure.(q) <- pool_pressure.(q) +. marginal;
    Page.Tbl.replace resident.(q) page ()
  in
  let on_event q = function
    | Engine.Hit _ -> ()
    | Engine.Miss_insert { page; _ } -> on_miss q page
    | Engine.Miss_evict { page; victim; _ } ->
        Page.Tbl.remove resident.(q) victim;
        on_miss q page
  in
  (* every pool is keyed by the parent trace's dense ids, and is fed
     only pages of its dictionary *)
  let engines =
    Array.init n_pools (fun q ->
        Engine.Step.init ~on_event:(on_event q) ~k:pool_size ~costs policy trace)
  in
  (* migrate user u to pool q: drop its pages from the old pool (they
     are simply lost — the new pool warms up from scratch) *)
  let migrate u q =
    let p = pool_of_user.(u) in
    if p <> q then begin
      let mine =
        Page.Tbl.fold
          (fun page () acc -> if Page.user page = u then page :: acc else acc)
          resident.(p) []
      in
      List.iter
        (fun page ->
          Page.Tbl.remove resident.(p) page;
          Engine.Step.evict engines.(p) page)
        mine;
      pool_of_user.(u) <- q;
      incr migrations
    end
  in
  let last_migration = ref (-1_000_000_000) in
  let rebalance ~pos ~rebalance_every ~switch_cost =
    (* hottest user on the most pressured pool vs least pressured pool *)
    let hot_pool = ref 0 and cold_pool = ref 0 in
    Array.iteri
      (fun q v ->
        if v > pool_pressure.(!hot_pool) then hot_pool := q;
        if v < pool_pressure.(!cold_pool) then cold_pool := q)
      pool_pressure;
    (* cooldown (migrating too often thrashes warm working sets) and
       hysteresis (pools within 3x pressure are left alone: moving a tenant
       out of a balanced assignment only creates the imbalance it
       claims to fix) *)
    if !hot_pool <> !cold_pool
       && pos - !last_migration >= 4 * rebalance_every
       && pool_pressure.(!hot_pool) > 3.0 *. pool_pressure.(!cold_pool) +. 1e-9
    then begin
      let gap = pool_pressure.(!hot_pool) -. pool_pressure.(!cold_pool) in
      (* move the user contributing most of the hot pool's pressure *)
      let best_u = ref (-1) in
      Array.iteri
        (fun u _ ->
          if pool_of_user.(u) = !hot_pool
             && (!best_u < 0 || pressure.(u) > pressure.(!best_u))
          then best_u := u)
        pressure;
      if !best_u >= 0 && pressure.(!best_u) > 0.0 then begin
        let u = !best_u in
        (* migration drops the user's warm pages: estimate the re-warm
           cost as cached-footprint x current marginal miss cost, and
           require the observed imbalance to pay for switch + warm-up *)
        let footprint =
          Page.Tbl.fold
            (fun page () acc -> if Page.user page = u then acc + 1 else acc)
            resident.(!hot_pool) 0
        in
        let marginal =
          Cf.eval costs.(u) (float_of_int (misses.(u) + 1))
          -. Cf.eval costs.(u) (float_of_int misses.(u))
        in
        let warmup_cost = float_of_int footprint *. marginal in
        (* the user's pressure is a per-window quantity while switch and
           warm-up are one-time: amortise over an assumed persistence
           horizon of 8 windows (heuristic; see E10's sensitivity to
           switch_cost for how the decision degrades gracefully) *)
        let horizon = 8.0 in
        let expected_gain = Float.min pressure.(u) gap *. horizon in
        (* a user carrying most of the gap would just flip the imbalance
           to the other pool and ping-pong; require the move to leave
           the hot pool at least as pressured as the cold one *)
        let stable = pressure.(u) <= 0.75 *. gap in
        if stable && expected_gain > switch_cost +. warmup_cost then begin
          migrate u !cold_pool;
          last_migration := pos;
          switch_paid := !switch_paid +. switch_cost
        end
      end
    end;
    (* decay the pressure window *)
    Array.iteri (fun u v -> pressure.(u) <- v /. 2.0) pressure;
    Array.iteri (fun q v -> pool_pressure.(q) <- v /. 2.0) pool_pressure
  in
  let n = Trace.length trace in
  for pos = 0 to n - 1 do
    let page = Trace.request trace pos in
    Engine.Step.feed engines.(pool_of_user.(Page.user page)) page;
    match strategy with
    | Greedy_cost { rebalance_every; switch_cost }
      when pos > 0 && pos mod rebalance_every = 0 ->
        rebalance ~pos ~rebalance_every ~switch_cost
    | Greedy_cost _ | Static_round_robin -> ()
  done;
  let total =
    let acc = ref !switch_paid in
    Array.iteri
      (fun u m -> acc := !acc +. Cf.eval costs.(u) (float_of_int m))
      misses;
    !acc
  in
  {
    strategy = strategy_name strategy;
    pools = n_pools;
    pool_size;
    misses_per_user = misses;
    migrations = !migrations;
    switch_cost_paid = !switch_paid;
    total_cost = total;
  }
