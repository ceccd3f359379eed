(* Tests for ccache_multipool: the future-work multi-pool engine. *)

open Ccache_trace
module ME = Ccache_multipool.Multi_engine
module Engine = Ccache_sim.Engine
module Policy = Ccache_sim.Policy
module Cf = Ccache_cost.Cost_function

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let costs_of n = Array.init n (fun _ -> Cf.monomial ~beta:2.0 ())

let workload ~seed ~tenants ~length =
  Workloads.generate ~seed ~length
    (Workloads.symmetric_zipf ~tenants ~pages_per_tenant:24 ~skew:0.8)

let test_single_pool_equals_engine () =
  (* 1 pool with static assignment behaves exactly like the plain
     engine running the same policy *)
  let t = workload ~seed:1 ~tenants:3 ~length:800 in
  let costs = costs_of 3 in
  let shared = Engine.run ~k:16 ~costs Ccache_core.Alg_discrete.policy t in
  let mp =
    ME.run ~pools:1 ~pool_size:16 ~strategy:ME.Static_round_robin ~costs t
  in
  checkb "same miss vector" true
    (shared.Engine.misses_per_user = mp.ME.misses_per_user);
  checki "no migrations" 0 mp.ME.migrations

let test_partitioning_never_helps () =
  (* splitting the same total memory across pools cannot beat sharing *)
  let t = workload ~seed:2 ~tenants:4 ~length:1200 in
  let costs = costs_of 4 in
  let shared = Engine.run ~k:32 ~costs Ccache_core.Alg_discrete.policy t in
  let shared_cost = Ccache_sim.Metrics.total_cost ~costs shared in
  List.iter
    (fun pools ->
      let mp =
        ME.run ~pools ~pool_size:(32 / pools) ~strategy:ME.Static_round_robin
          ~costs t
      in
      checkb
        (Printf.sprintf "%d pools not cheaper" pools)
        true
        (mp.ME.total_cost >= shared_cost -. 1e-9))
    [ 2; 4 ]

let test_rebalance_repairs_bad_assignment () =
  let t = workload ~seed:3 ~tenants:4 ~length:2000 in
  let costs = costs_of 4 in
  let all_on_zero = Array.make 4 0 in
  let static =
    ME.run ~initial_assignment:all_on_zero ~pools:2 ~pool_size:12
      ~strategy:ME.Static_round_robin ~costs t
  in
  let greedy =
    ME.run ~initial_assignment:all_on_zero ~pools:2 ~pool_size:12
      ~strategy:(ME.Greedy_cost { rebalance_every = 200; switch_cost = 0.0 })
      ~costs t
  in
  checkb "greedy migrates" true (greedy.ME.migrations > 0);
  checkb "greedy cheaper than stuck-static" true
    (greedy.ME.total_cost < static.ME.total_cost)

let test_huge_switch_cost_freezes () =
  let t = workload ~seed:4 ~tenants:4 ~length:1000 in
  let costs = costs_of 4 in
  let frozen =
    ME.run
      ~initial_assignment:(Array.make 4 0)
      ~pools:2 ~pool_size:8
      ~strategy:(ME.Greedy_cost { rebalance_every = 100; switch_cost = 1e12 })
      ~costs t
  in
  checki "no migrations at huge switch cost" 0 frozen.ME.migrations;
  Alcotest.(check (float 1e-9)) "no switch cost paid" 0.0 frozen.ME.switch_cost_paid

let test_switch_cost_accounted () =
  let t = workload ~seed:5 ~tenants:4 ~length:2000 in
  let costs = costs_of 4 in
  let r =
    ME.run
      ~initial_assignment:(Array.make 4 0)
      ~pools:2 ~pool_size:12
      ~strategy:(ME.Greedy_cost { rebalance_every = 200; switch_cost = 25.0 })
      ~costs t
  in
  Alcotest.(check (float 1e-9))
    "switch cost = migrations x price"
    (25.0 *. float_of_int r.ME.migrations)
    r.ME.switch_cost_paid

let test_validation () =
  let t = workload ~seed:6 ~tenants:2 ~length:10 in
  let costs = costs_of 2 in
  Alcotest.check_raises "pools > 0"
    (Invalid_argument "Multi_engine.run: pools must be positive") (fun () ->
      ignore (ME.run ~pools:0 ~pool_size:4 ~strategy:ME.Static_round_robin ~costs t));
  Alcotest.check_raises "assignment range"
    (Invalid_argument "Multi_engine.run: assignment outside pool range") (fun () ->
      ignore
        (ME.run ~initial_assignment:[| 0; 5 |] ~pools:2 ~pool_size:4
           ~strategy:ME.Static_round_robin ~costs t));
  Alcotest.check_raises "offline policy"
    (Invalid_argument "Multi_engine.run: offline policies cannot serve pools")
    (fun () ->
      ignore
        (ME.run ~policy:Ccache_policies.Belady.policy ~pools:2 ~pool_size:4
           ~strategy:ME.Static_round_robin ~costs t))

let test_policy_override () =
  (* any engine policy can drive the pools *)
  let t = workload ~seed:7 ~tenants:2 ~length:400 in
  let costs = costs_of 2 in
  let r =
    ME.run ~policy:Ccache_policies.Lru.policy ~pools:2 ~pool_size:8
      ~strategy:ME.Static_round_robin ~costs t
  in
  checkb "runs with lru" true (r.ME.total_cost > 0.0);
  (* single pool with lru equals plain lru run *)
  let single =
    ME.run ~policy:Ccache_policies.Lru.policy ~pools:1 ~pool_size:16
      ~strategy:ME.Static_round_robin ~costs t
  in
  let plain = Engine.run ~k:16 ~costs Ccache_policies.Lru.policy t in
  checkb "matches engine" true
    (single.ME.misses_per_user = plain.Engine.misses_per_user);
  (* one pool is the engine for every online policy, including
     static-partition, whose tenant slices fill before the pool does
     and so rely on the engine honouring [wants_evict] *)
  let t =
    Workloads.generate ~seed:101 ~length:3000 (Workloads.sqlvm_mix ~scale:1)
  in
  let costs = costs_of (Trace.n_users t) in
  List.iter
    (fun policy ->
      let single =
        ME.run ~policy ~pools:1 ~pool_size:64 ~strategy:ME.Static_round_robin
          ~costs t
      in
      let plain = Engine.run ~k:64 ~costs policy t in
      Alcotest.(check (array int))
        (Policy.name policy ^ ": one pool = engine")
        plain.Engine.misses_per_user single.ME.misses_per_user)
    (Ccache_policies.Registry.online
    @ [ Ccache_core.Alg_discrete.policy; Ccache_core.Alg_fast.policy ])

let test_pooled_runs_match_serial () =
  (* multi-pool tenant-routing runs farmed out to a pooled map are
     byte-identical to the serial map: each ME.run is a pure function
     of its config, and map_list returns results in input order *)
  let t = workload ~seed:8 ~tenants:4 ~length:1500 in
  let costs = costs_of 4 in
  let configs = [ (1, 32); (2, 16); (4, 8); (2, 12) ] in
  let eval (pools, pool_size) =
    let r = ME.run ~pools ~pool_size ~strategy:ME.Static_round_robin ~costs t in
    (r.ME.misses_per_user, r.ME.migrations)
  in
  let serial = List.map eval configs in
  let pool = Ccache_util.Domain_pool.create ~size:4 () in
  let pooled = Ccache_util.Domain_pool.map_list ~pool ~f:eval configs in
  checkb "pooled tenant-routing results identical" true (serial = pooled)

(* The multipool engine as it was hand-written before its pools ran on
   [Engine.Step]: its own per-pool cache table, occupancy count and
   handler calls, the rebalancer unchanged.  The oracle of the
   equivalence property below. *)
module Reference = struct
  type pool = {
    handlers : Policy.handlers;
    cached : unit Page.Tbl.t;
    mutable occupancy : int;
  }

  let make_pool ~policy ~pool_size ~costs =
    let config = Policy.Config.make ~k:pool_size ~costs () in
    {
      handlers = Policy.instantiate policy config;
      cached = Page.Tbl.create 64;
      occupancy = 0;
    }

  let run ~policy ~initial_assignment ~pools:n_pools ~pool_size ~strategy
      ~costs trace =
    let n_users = Trace.n_users trace in
    let pool_of_user = Array.copy initial_assignment in
    let pools =
      Array.init n_pools (fun _ -> make_pool ~policy ~pool_size ~costs)
    in
    let misses = Array.make n_users 0 in
    let pressure = Array.make n_users 0.0 in
    let pool_pressure = Array.make n_pools 0.0 in
    let migrations = ref 0 in
    let switch_paid = ref 0.0 in
    let serve pos page =
      let pool = pools.(pool_of_user.(Page.user page)) in
      if Page.Tbl.mem pool.cached page then pool.handlers.Policy.on_hit ~pos page
      else begin
        let u = Page.user page in
        misses.(u) <- misses.(u) + 1;
        let marginal =
          Cf.eval costs.(u) (float_of_int misses.(u))
          -. Cf.eval costs.(u) (float_of_int (misses.(u) - 1))
        in
        pressure.(u) <- pressure.(u) +. marginal;
        pool_pressure.(pool_of_user.(u)) <-
          pool_pressure.(pool_of_user.(u)) +. marginal;
        if pool.occupancy >= pool_size then begin
          let victim = pool.handlers.Policy.choose_victim ~pos ~incoming:page in
          Page.Tbl.remove pool.cached victim;
          pool.occupancy <- pool.occupancy - 1;
          pool.handlers.Policy.on_evict ~pos victim
        end;
        Page.Tbl.replace pool.cached page ();
        pool.occupancy <- pool.occupancy + 1;
        pool.handlers.Policy.on_insert ~pos page
      end
    in
    let migrate ~pos u q =
      let p = pool_of_user.(u) in
      if p <> q then begin
        let pool = pools.(p) in
        let mine =
          Page.Tbl.fold
            (fun page () acc -> if Page.user page = u then page :: acc else acc)
            pool.cached []
        in
        List.iter
          (fun page ->
            Page.Tbl.remove pool.cached page;
            pool.occupancy <- pool.occupancy - 1;
            pool.handlers.Policy.on_evict ~pos page)
          mine;
        pool_of_user.(u) <- q;
        incr migrations
      end
    in
    let last_migration = ref (-1_000_000_000) in
    let rebalance ~pos ~rebalance_every ~switch_cost =
      let hot_pool = ref 0 and cold_pool = ref 0 in
      Array.iteri
        (fun q v ->
          if v > pool_pressure.(!hot_pool) then hot_pool := q;
          if v < pool_pressure.(!cold_pool) then cold_pool := q)
        pool_pressure;
      if !hot_pool <> !cold_pool
         && pos - !last_migration >= 4 * rebalance_every
         && pool_pressure.(!hot_pool) > 3.0 *. pool_pressure.(!cold_pool) +. 1e-9
      then begin
        let gap = pool_pressure.(!hot_pool) -. pool_pressure.(!cold_pool) in
        let best_u = ref (-1) in
        Array.iteri
          (fun u _ ->
            if pool_of_user.(u) = !hot_pool
               && (!best_u < 0 || pressure.(u) > pressure.(!best_u))
            then best_u := u)
          pressure;
        if !best_u >= 0 && pressure.(!best_u) > 0.0 then begin
          let u = !best_u in
          let footprint =
            Page.Tbl.fold
              (fun page () acc -> if Page.user page = u then acc + 1 else acc)
              pools.(!hot_pool).cached 0
          in
          let marginal =
            Cf.eval costs.(u) (float_of_int (misses.(u) + 1))
            -. Cf.eval costs.(u) (float_of_int misses.(u))
          in
          let warmup_cost = float_of_int footprint *. marginal in
          let expected_gain = Float.min pressure.(u) gap *. 8.0 in
          let stable = pressure.(u) <= 0.75 *. gap in
          if stable && expected_gain > switch_cost +. warmup_cost then begin
            migrate ~pos u !cold_pool;
            last_migration := pos;
            switch_paid := !switch_paid +. switch_cost
          end
        end
      end;
      Array.iteri (fun u v -> pressure.(u) <- v /. 2.0) pressure;
      Array.iteri (fun q v -> pool_pressure.(q) <- v /. 2.0) pool_pressure
    in
    for pos = 0 to Trace.length trace - 1 do
      serve pos (Trace.request trace pos);
      match strategy with
      | ME.Greedy_cost { rebalance_every; switch_cost }
        when pos > 0 && pos mod rebalance_every = 0 ->
          rebalance ~pos ~rebalance_every ~switch_cost
      | ME.Greedy_cost _ | ME.Static_round_robin -> ()
    done;
    let total =
      let acc = ref !switch_paid in
      Array.iteri
        (fun u m -> acc := !acc +. Cf.eval costs.(u) (float_of_int m))
        misses;
      !acc
    in
    (misses, !migrations, total, !switch_paid)
end

(* Costs whose marginals are not integers, so a reordered float
   operation would show in the bits of [total_cost]. *)
let float_costs n =
  Array.init n (fun i ->
      match i mod 3 with
      | 0 -> Cf.monomial ~beta:1.7 ()
      | 1 -> Cf.linear ~slope:0.3 ()
      | _ -> Ccache_cost.Sla.hinge ~tolerance:3.0 ~penalty_rate:2.5)

(* The pools on [Engine.Step] equal the hand-written pools: the same
   miss vector and migrations, and the same total and switch cost bit
   for bit, over random traces, pool shapes, starting assignments and
   both strategies.  Migrations drop pages in the resident table's
   order and each drop runs the policy's eviction update, so any
   change to that order shows here for the budget policies. *)
let pools_equal_reference =
  let bits = Int64.bits_of_float in
  let policies =
    [|
      Ccache_core.Alg_discrete.policy;
      Ccache_core.Alg_fast.policy;
      Ccache_policies.Lru.policy;
      Ccache_policies.Landlord.static;
    |]
  in
  QCheck.Test.make ~name:"pools on Engine.Step = hand-written pools"
    ~count:300
    QCheck.(
      quad (int_range 0 3) (pair (int_range 1 3) (int_range 2 12))
        (pair (int_range 2 5) small_nat)
        (pair (int_range 0 3) bool))
    (fun (pi, (pools, pool_size), (users, seed), (sw, skewed)) ->
      let policy = policies.(pi) in
      let rng = Ccache_util.Prng.create ~seed in
      let t =
        Trace.of_list ~n_users:users
          (List.init 600 (fun _ ->
               let u = Ccache_util.Prng.int rng users in
               (* tenant u touches 4(u+1) pages: unequal working sets *)
               Page.make ~user:u ~id:(Ccache_util.Prng.int rng (4 * (u + 1)))))
      in
      let costs = float_costs users in
      let initial_assignment =
        if skewed then Array.make users 0
        else Array.init users (fun _ -> Ccache_util.Prng.int rng pools)
      in
      let strategy =
        if sw = 3 then ME.Static_round_robin
        else
          ME.Greedy_cost
            {
              rebalance_every = 10 + (10 * sw);
              switch_cost = [| 0.0; 2.0; 20.0 |].(sw);
            }
      in
      let r =
        ME.run ~policy ~initial_assignment ~pools ~pool_size ~strategy ~costs t
      in
      let misses, migrations, total, paid =
        Reference.run ~policy ~initial_assignment ~pools ~pool_size ~strategy
          ~costs t
      in
      r.ME.misses_per_user = misses
      && r.ME.migrations = migrations
      && bits r.ME.total_cost = bits total
      && bits r.ME.switch_cost_paid = bits paid)

let test_strategy_names () =
  checkb "static" true (ME.strategy_name ME.Static_round_robin = "static-rr");
  checkb "greedy" true
    (ME.strategy_name (ME.Greedy_cost { rebalance_every = 10; switch_cost = 2.0 })
    = "greedy(sw=2)")

let () =
  Alcotest.run "ccache_multipool"
    [
      ( "multi_engine",
        [
          Alcotest.test_case "single pool = engine" `Quick test_single_pool_equals_engine;
          Alcotest.test_case "partitioning never helps" `Quick test_partitioning_never_helps;
          Alcotest.test_case "rebalance repairs" `Quick test_rebalance_repairs_bad_assignment;
          Alcotest.test_case "huge switch freezes" `Quick test_huge_switch_cost_freezes;
          Alcotest.test_case "switch cost accounted" `Quick test_switch_cost_accounted;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "policy override" `Quick test_policy_override;
          Alcotest.test_case "pooled runs match serial" `Quick
            test_pooled_runs_match_serial;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
          QCheck_alcotest.to_alcotest ~long:false pools_equal_reference;
        ] );
    ]
