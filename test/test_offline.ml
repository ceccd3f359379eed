(* Tests for ccache_offline: exact DP, the Section 4 batch comparator,
   local search and the best-of wrapper. *)

open Ccache_trace
module Dp = Ccache_offline.Dp_opt
module Batch = Ccache_offline.Batch_offline
module Ls = Ccache_offline.Local_search
module Best = Ccache_offline.Best_of
module Cf = Ccache_cost.Cost_function
module Engine = Ccache_sim.Engine
module Prng = Ccache_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let p u i = Page.make ~user:u ~id:i
let uni_costs n = Array.init n (fun _ -> Cf.linear ~slope:1.0 ())
let mono_costs n = Array.init n (fun _ -> Cf.monomial ~beta:2.0 ())

(* ------------------------------------------------------------------ *)
(* DP exact optimum                                                    *)
(* ------------------------------------------------------------------ *)

let test_dp_trivial_fits_in_cache () =
  (* 3 distinct pages, k=3: only compulsory misses *)
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 2; p 0 0; p 0 1 ] in
  let r = Dp.solve ~cache_size:3 ~costs:(uni_costs 1) t in
  checkf "cost" 3.0 r.Dp.cost;
  checki "misses" 3 r.Dp.misses_per_user.(0)

let test_dp_classic_belady_example () =
  (* a b c a b c with k=2: OPT = 4 misses (keep one of the repeats) *)
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 2; p 0 0; p 0 1; p 0 2 ] in
  let r = Dp.solve ~cache_size:2 ~costs:(uni_costs 1) t in
  checkf "cost" 4.0 r.Dp.cost

let test_dp_convex_prefers_balance () =
  (* two users, x^2 costs: spreading 4 misses 2/2 costs 8, while 4/0
     costs 16.  Construct a trace where cost-blind OPT-misses would
     dump all misses on one user but convex OPT balances. *)
  let reqs =
    [ p 0 0; p 1 0; p 0 1; p 1 1; p 0 0; p 1 0; p 0 1; p 1 1 ]
  in
  let t = Trace.of_list ~n_users:2 reqs in
  let r = Dp.solve ~cache_size:2 ~costs:(mono_costs 2) t in
  (* 4 distinct pages in 2 slots: at least 4 cold + some repeats missed;
     whatever the count, the optimal vector must be balanced within 1 *)
  let a = r.Dp.misses_per_user.(0) and b = r.Dp.misses_per_user.(1) in
  checkb "balanced misses" true (abs (a - b) <= 1)

let test_dp_matches_brute_force_small () =
  (* random tiny instances: DP vs exhaustive search over victim choices *)
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 5 do
    let len = 8 + Prng.int rng 4 in
    let reqs = List.init len (fun _ -> p 0 (Prng.int rng 4)) in
    let t = Trace.of_list ~n_users:1 reqs in
    let costs = uni_costs 1 in
    let dp = Dp.solve ~cache_size:2 ~costs t in
    (* brute force: recursive over all eviction choices *)
    let arr = Array.of_list reqs in
    let rec brute pos cache misses =
      if pos = Array.length arr then misses
      else
        let q = arr.(pos) in
        if List.exists (Page.equal q) cache then brute (pos + 1) cache misses
        else if List.length cache < 2 then brute (pos + 1) (q :: cache) (misses + 1)
        else
          List.fold_left
            (fun best victim ->
              let cache' = q :: List.filter (fun r -> not (Page.equal r victim)) cache in
              Stdlib.min best (brute (pos + 1) cache' (misses + 1)))
            max_int cache
    in
    let expected = brute 0 [] 0 in
    checki "dp = brute force" expected (int_of_float dp.Dp.cost)
  done

let test_dp_pinned () =
  (* pin page b: with k=1... use k=2, pages a b c, b pinned once cached.
     requests: a b c a — c must evict a (b pinned), so a misses twice *)
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 2; p 0 0 ] in
  let costs = uni_costs 1 in
  let unpinned = Dp.solve ~cache_size:2 ~costs t in
  let pinned =
    Dp.solve ~pinned:(fun q -> Page.id q = 1) ~cache_size:2 ~costs t
  in
  checkf "unpinned keeps a" 3.0 unpinned.Dp.cost;
  checkf "pinning b forces extra miss" 4.0 pinned.Dp.cost

let test_dp_too_large_guard () =
  let t =
    Workloads.generate ~seed:1 ~length:200
      (Workloads.symmetric_zipf ~tenants:1 ~pages_per_tenant:70 ~skew:0.2)
  in
  checkb "raises Too_large" true
    (match Dp.solve ~cache_size:4 ~costs:(uni_costs 1) t with
    | exception Dp.Too_large _ -> true
    | _ -> false)

let dp_lower_bounds_policies =
  QCheck.Test.make ~name:"DP lower-bounds every policy" ~count:20
    QCheck.(pair (int_range 2 4) small_nat)
    (fun (k, seed) ->
      let rng = Prng.create ~seed:(seed + 3) in
      let reqs =
        List.init 20 (fun _ ->
            Page.make ~user:(Prng.int rng 2) ~id:(Prng.int rng 3))
      in
      let t = Trace.of_list ~n_users:2 reqs in
      let costs = mono_costs 2 in
      let dp = Dp.solve ~cache_size:k ~costs t in
      List.for_all
        (fun pol ->
          let r = Engine.run ~k ~costs pol t in
          Ccache_sim.Metrics.total_cost ~costs r >= dp.Dp.cost -. 1e-9)
        [
          Ccache_policies.Lru.policy;
          Ccache_policies.Belady.policy;
          Ccache_policies.Convex_belady.policy;
          Ccache_core.Alg_discrete.policy;
        ])

(* ------------------------------------------------------------------ *)
(* Batch offline (Section 4)                                           *)
(* ------------------------------------------------------------------ *)

let test_batch_shape_validation () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1 ] in
  Alcotest.check_raises "multi-page user rejected"
    (Invalid_argument "Batch_offline.run: expects one page per user (id 0)")
    (fun () -> ignore (Batch.run ~k:1 t))

let test_batch_on_adversarial_instance () =
  (* drive the adversary against LRU, then run the batch comparator *)
  let n = 8 in
  let costs = Array.init n (fun _ -> Cf.monomial ~beta:2.0 ()) in
  let adv =
    Ccache_lb.Adversary.drive ~n_users:n ~steps:400 ~costs Ccache_policies.Lru.policy
  in
  let b = Batch.run ~k:adv.Ccache_lb.Adversary.k adv.Ccache_lb.Adversary.trace in
  (* at most one eviction per batch *)
  let total_evictions = Array.fold_left ( + ) 0 b.Batch.evictions_per_user in
  checkb "<= one eviction per batch" true (total_evictions <= b.Batch.batches);
  (* offline far cheaper than online *)
  let online = Cf.total costs adv.Ccache_lb.Adversary.online_misses in
  let offline = Cf.total costs b.Batch.misses_per_user in
  checkb "offline much cheaper" true (offline *. 2.0 < online);
  (* evictions spread evenly: max within factor ~3 of mean *)
  let nonzero = Array.to_list b.Batch.evictions_per_user in
  let mx = List.fold_left Stdlib.max 0 nonzero in
  let mean = float_of_int total_evictions /. float_of_int n in
  checkb "evictions spread" true (float_of_int mx <= (3.0 *. mean) +. 2.0)

let test_batch_misses_at_least_cold () =
  let n = 6 in
  let costs = Array.init n (fun _ -> Cf.linear ~slope:1.0 ()) in
  let adv =
    Ccache_lb.Adversary.drive ~n_users:n ~steps:100 ~costs Ccache_policies.Fifo.policy
  in
  let b = Batch.run ~k:(n - 1) adv.Ccache_lb.Adversary.trace in
  (* every user requested at least once must miss at least once *)
  Array.iteri
    (fun u m ->
      let requested =
        Array.exists (fun q -> Page.user q = u) (Trace.requests adv.Ccache_lb.Adversary.trace)
      in
      if requested then checkb (Printf.sprintf "user %d cold miss" u) true (m >= 1))
    b.Batch.misses_per_user

(* ------------------------------------------------------------------ *)
(* Local search and Best_of                                            *)
(* ------------------------------------------------------------------ *)

let test_local_search_never_worse () =
  let t =
    Workloads.generate ~seed:21 ~length:400
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:20 ~skew:0.8)
  in
  let costs = mono_costs 2 in
  let seed_run =
    Engine.run ~k:6 ~costs Ccache_policies.Convex_belady.policy t
  in
  let seed_cost = Ccache_sim.Metrics.total_cost ~costs seed_run in
  let ls = Ls.improve ~rounds:30 ~cache_size:6 ~costs t in
  checkb "not worse than seed" true (ls.Ls.cost <= seed_cost +. 1e-9);
  checkb "evaluations counted" true (ls.Ls.evaluations > 0)

let test_local_search_zero_rounds () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 0 ] in
  let ls = Ls.improve ~rounds:0 ~cache_size:1 ~costs:(uni_costs 1) t in
  checki "no evaluations" 0 ls.Ls.evaluations;
  checkb "still returns seed schedule" true (ls.Ls.cost > 0.0)

let test_best_of_picks_minimum () =
  let t =
    Workloads.generate ~seed:22 ~length:300
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:15 ~skew:0.9)
  in
  let costs = mono_costs 2 in
  let b = Best.compute ~local_search_rounds:10 ~cache_size:5 ~costs t in
  checkb "winner listed" true (List.mem_assoc b.Best.winner b.Best.all |> fun _ -> true);
  List.iter
    (fun (_, c) -> checkb "winner is min" true (b.Best.cost <= c +. 1e-9))
    b.Best.all;
  checkf "cost matches vector" b.Best.cost (Cf.total costs b.Best.misses_per_user)

let test_best_of_uses_dp_on_tiny () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 2; p 0 0; p 0 1; p 0 2 ] in
  let costs = uni_costs 1 in
  let b = Best.compute ~exact_dp:true ~local_search_rounds:0 ~cache_size:2 ~costs t in
  checkb "dp among comparators" true (List.mem_assoc "dp-exact" b.Best.all);
  (* DP is optimal, so best-of must equal it *)
  checkf "best = dp" (List.assoc "dp-exact" b.Best.all) b.Best.cost

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_offline"
    [
      ( "dp_opt",
        [
          Alcotest.test_case "fits in cache" `Quick test_dp_trivial_fits_in_cache;
          Alcotest.test_case "belady example" `Quick test_dp_classic_belady_example;
          Alcotest.test_case "convex balance" `Quick test_dp_convex_prefers_balance;
          Alcotest.test_case "matches brute force" `Quick test_dp_matches_brute_force_small;
          Alcotest.test_case "pinned pages" `Quick test_dp_pinned;
          Alcotest.test_case "too-large guard" `Quick test_dp_too_large_guard;
        ]
        @ qsuite [ dp_lower_bounds_policies ] );
      ( "batch_offline",
        [
          Alcotest.test_case "shape validation" `Quick test_batch_shape_validation;
          Alcotest.test_case "adversarial instance" `Quick test_batch_on_adversarial_instance;
          Alcotest.test_case "cold misses" `Quick test_batch_misses_at_least_cold;
        ] );
      ( "local_search",
        [
          Alcotest.test_case "never worse" `Quick test_local_search_never_worse;
          Alcotest.test_case "zero rounds" `Quick test_local_search_zero_rounds;
        ] );
      ( "best_of",
        [
          Alcotest.test_case "picks minimum" `Quick test_best_of_picks_minimum;
          Alcotest.test_case "dp on tiny" `Quick test_best_of_uses_dp_on_tiny;
        ] );
    ]
