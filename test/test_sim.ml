(* Tests for ccache_sim: the engine's accounting guarantees, flush
   semantics, policy-error detection, metrics and sweeps. *)

open Ccache_trace
module Policy = Ccache_sim.Policy
module Engine = Ccache_sim.Engine
module Metrics = Ccache_sim.Metrics
module Sweep = Ccache_sim.Sweep
module Cf = Ccache_cost.Cost_function
module Prng = Ccache_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let p u i = Page.make ~user:u ~id:i
let linear_costs n = Array.init n (fun _ -> Cf.linear ~slope:1.0 ())

(* ------------------------------------------------------------------ *)
(* Engine basics with LRU                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_hit_miss_accounting () =
  (* a b a c with k=2, LRU: a miss, b miss, a hit, c miss (evict b) *)
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 0; p 0 2 ] in
  let r = Engine.run ~k:2 ~costs:(linear_costs 1) Ccache_policies.Lru.policy t in
  checki "hits" 1 r.Engine.hits;
  checki "misses" 3 (Engine.misses r);
  checki "evictions" 1 (Engine.evictions r);
  checkb "hits+misses=T" true (r.Engine.hits + Engine.misses r = 4);
  checkb "final cache" true (r.Engine.final_cache = [ p 0 0; p 0 2 ]);
  checkf "miss ratio" 0.75 (Engine.miss_ratio r)

let test_engine_no_eviction_when_room () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 2 ] in
  let r, log = Engine.run_logged ~k:8 ~costs:(linear_costs 1) Ccache_policies.Lru.policy t in
  checki "no evictions" 0 (Engine.evictions r);
  checkb "all miss-inserts" true
    (List.for_all (function Engine.Miss_insert _ -> true | _ -> false) log)

let test_engine_event_log_order () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 0; p 0 1 ] in
  let _, log = Engine.run_logged ~k:1 ~costs:(linear_costs 1) Ccache_policies.Lru.policy t in
  match log with
  | [ Engine.Miss_insert { pos = 0; _ }; Engine.Hit { pos = 1; _ };
      Engine.Miss_evict { pos = 2; victim; _ } ] ->
      checkb "victim is a" true (Page.equal victim (p 0 0))
  | _ -> Alcotest.fail "unexpected event log shape"

let test_engine_costs_length_check () =
  let t = Trace.of_list ~n_users:2 [ p 0 0; p 1 0 ] in
  Alcotest.check_raises "costs mismatch"
    (Invalid_argument "Engine.run: costs array must have one entry per user")
    (fun () ->
      ignore (Engine.run ~k:2 ~costs:(linear_costs 1) Ccache_policies.Lru.policy t))

(* a policy that misbehaves: returns the incoming page as victim *)
let bad_policy =
  Policy.make ~name:"bad" (fun _ ->
      {
        Policy.on_hit = Policy.no_hit;
        wants_evict = Policy.never_evict_early;
        choose_victim = (fun ~pos:_ ~incoming -> incoming);
        on_insert = (fun ~pos:_ _ -> ());
        on_evict = Policy.no_evict;
      })

let test_engine_detects_bad_victim () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1 ] in
  checkb "policy error raised" true
    (match Engine.run ~k:1 ~costs:(linear_costs 1) bad_policy t with
    | exception Engine.Policy_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Flush semantics                                                     *)
(* ------------------------------------------------------------------ *)

let test_engine_flush_empties_cache () =
  let t =
    Workloads.generate ~seed:7 ~length:400
      (Workloads.symmetric_zipf ~tenants:3 ~pages_per_tenant:30 ~skew:0.8)
  in
  let costs = linear_costs 3 in
  List.iter
    (fun policy ->
      let r = Engine.run ~flush:true ~k:16 ~costs policy t in
      checkb
        (Ccache_sim.Policy.name policy ^ " flush empties cache")
        true (r.Engine.final_cache = []);
      (* with flush, evictions = misses per user *)
      checkb
        (Ccache_sim.Policy.name policy ^ " evictions = misses")
        true
        (r.Engine.misses_per_user = r.Engine.evictions_per_user))
    [
      Ccache_policies.Lru.policy;
      Ccache_policies.Fifo.policy;
      Ccache_policies.Lfu.policy;
      Ccache_policies.Marking.policy;
      Ccache_policies.Static_partition.equal_split;
      Ccache_policies.Landlord.adaptive;
      Ccache_policies.Clock.policy;
      Ccache_policies.Two_q.policy;
      Ccache_policies.Arc.policy;
    ]

let test_engine_flush_offline_too () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 0 ] in
  let r = Engine.run ~flush:true ~k:2 ~costs:(linear_costs 1) Ccache_policies.Belady.policy t in
  checkb "belady flush empties" true (r.Engine.final_cache = []);
  checkb "evictions = misses" true (r.Engine.misses_per_user = r.Engine.evictions_per_user)

(* ------------------------------------------------------------------ *)
(* Cache-size safety property                                          *)
(* ------------------------------------------------------------------ *)

(* replay the event log maintaining a cache set: size must never
   exceed k, victims must be cached, hits must be cached *)
let replay_consistent ~k log =
  let cached = Page.Tbl.create 32 in
  List.for_all
    (fun ev ->
      match ev with
      | Engine.Hit { page; _ } -> Page.Tbl.mem cached page
      | Engine.Miss_insert { page; _ } ->
          if Page.Tbl.mem cached page then false
          else begin
            Page.Tbl.replace cached page ();
            Page.Tbl.length cached <= k
          end
      | Engine.Miss_evict { page; victim; _ } ->
          if not (Page.Tbl.mem cached victim) then false
          else begin
            Page.Tbl.remove cached victim;
            if Page.user page < 1000 && not (Page.Tbl.mem cached page) then
              Page.Tbl.replace cached page ();
            Page.Tbl.length cached <= k
          end)
    log

let cache_safety_property =
  QCheck.Test.make ~name:"cache never exceeds k for any policy" ~count:40
    QCheck.(triple (int_range 1 20) (int_range 0 9) small_nat)
    (fun (k, policy_idx, seed) ->
      let policies =
        [|
          Ccache_policies.Lru.policy;
          Ccache_policies.Fifo.policy;
          Ccache_policies.Lfu.policy;
          Ccache_policies.Marking.policy;
          Ccache_policies.Random_policy.policy;
          Ccache_policies.Lru_k.lru_2;
          Ccache_policies.Landlord.adaptive;
          Ccache_policies.Clock.policy;
          Ccache_policies.Two_q.policy;
          Ccache_policies.Arc.policy;
        |]
      in
      let policy = policies.(policy_idx) in
      let t =
        Workloads.generate ~seed:(seed + 1) ~length:300
          (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:25 ~skew:0.7)
      in
      let r, log = Engine.run_logged ~k ~costs:(linear_costs 2) policy t in
      replay_consistent ~k log
      && r.Engine.hits + Engine.misses r = Trace.length t)

(* ------------------------------------------------------------------ *)
(* wants_evict (early eviction)                                        *)
(* ------------------------------------------------------------------ *)

let test_early_eviction_hook () =
  (* a policy that always evicts early keeps at most 1 page cached *)
  let one_slot =
    Policy.make ~name:"one-slot" (fun _ ->
        let last = ref None in
        {
          Policy.on_hit = Policy.no_hit;
          wants_evict = (fun ~pos:_ ~incoming:_ -> true);
          choose_victim =
            (fun ~pos:_ ~incoming:_ ->
              match !last with Some p -> p | None -> assert false);
          on_insert = (fun ~pos:_ page -> last := Some page);
          on_evict = (fun ~pos:_ _ -> last := None);
        })
  in
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 2; p 0 1 ] in
  let r = Engine.run ~k:10 ~costs:(linear_costs 1) one_slot t in
  (* every request misses: the single slot always holds the previous page *)
  checki "all miss" 4 (Engine.misses r);
  checki "evictions" 3 (Engine.evictions r)

(* With observability off (the default) the request loop must allocate
   O(1) bytes per request: no event records without a listener, no
   boxed keys in the cache set, no per-touch heap entries.  Measured by
   the *marginal* cost between a short and a long run of the same
   workload, which cancels the O(k) setup (policy state, final cache
   list) and any warm-up growth.  The cost-aware policies read their
   marginals from [Cost_function.Marginals] and evaluate no cost
   function on a hit or insert; what they still allocate are floats
   boxed where they cross a module boundary ([Indexed_heap]'s [~prio],
   [priority] and [min_prio_exn], and [eval]'s result), because dune's
   dev profile compiles with [-opaque] and inlines nothing across
   modules.  Their bounds are ~2.3x the measured 48 (alg-discrete-fast),
   23 (landlord-static) and 34 (landlord-adaptive) B/request.  The list
   policies keep their state in flat rank-indexed arrays and measure
   0-3, so their 32 B bound catches a per-request record or closure,
   not normal drift. *)
let test_engine_alloc_per_request () =
  let costs = Array.init 5 (fun _ -> Cf.monomial ~beta:2.0 ()) in
  (* bytes allocated by one run, counted in minor words: exact for the
     small blocks a request allocates, and unlike [Gc.allocated_bytes]
     independent of what ran before *)
  let bytes_for policy n =
    let trace =
      Ccache_trace.Workloads.generate ~seed:42 ~length:n
        (Ccache_trace.Workloads.sqlvm_mix ~scale:1)
    in
    ignore (Engine.run ~k:64 ~costs policy trace);
    (* warm *)
    let w0 = Gc.minor_words () in
    ignore (Engine.run ~k:64 ~costs policy trace);
    (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8)
  in
  List.iter
    (fun (policy, budget (* bytes/request, marginal *)) ->
      let b1 = bytes_for policy 2_000 and b2 = bytes_for policy 20_000 in
      let marginal = (b2 -. b1) /. 18_000.0 in
      if marginal > budget then
        Alcotest.failf "%s allocates %.1f bytes/request (budget %.0f)"
          (Policy.name policy) marginal budget)
    [
      (Ccache_core.Alg_fast.policy, 110.0);
      (Ccache_policies.Landlord.static, 52.0);
      (Ccache_policies.Landlord.adaptive, 80.0);
      (* the rank-list policies: only ARC's ghost hits allocate (a
         boxed float) *)
      (Ccache_policies.Lru.policy, 32.0);
      (Ccache_policies.Fifo.policy, 32.0);
      (Ccache_policies.Static_partition.equal_split, 32.0);
      (Ccache_policies.Two_q.policy, 32.0);
      (Ccache_policies.Arc.policy, 32.0);
    ]

(* ------------------------------------------------------------------ *)
(* Windows                                                             *)
(* ------------------------------------------------------------------ *)

module Windows = Ccache_sim.Windows

let test_windows_partition () =
  (* 5 requests, window 2 -> windows of sizes 2,2,1 *)
  let t = Trace.of_list ~n_users:2 [ p 0 0; p 1 0; p 0 1; p 1 1; p 0 2 ] in
  let costs = linear_costs 2 in
  let _, w = Windows.run_windowed ~window:2 ~k:10 ~costs Ccache_policies.Lru.policy t in
  checki "three windows" 3 w.Windows.n_windows;
  (* all cold misses: per-window per-user counts *)
  checkb "w0" true (w.Windows.misses.(0) = [| 1; 1 |]);
  checkb "w1" true (w.Windows.misses.(1) = [| 1; 1 |]);
  checkb "w2" true (w.Windows.misses.(2) = [| 1; 0 |]);
  checkb "totals = cumulative" true (Windows.total_misses w = [| 3; 2 |])

let test_windows_cost_convexity_gap () =
  (* f(x) = x^2: windowed pricing is cheaper than cumulative pricing of
     the same miss counts (convexity: splitting reduces cost) *)
  let t =
    Workloads.generate ~seed:13 ~length:600
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:30 ~skew:0.8)
  in
  let costs = Array.init 2 (fun _ -> Cf.monomial ~beta:2.0 ()) in
  let result, w =
    Windows.run_windowed ~window:100 ~k:8 ~costs Ccache_policies.Lru.policy t
  in
  let cumulative = Metrics.total_cost ~costs result in
  checkb "windowed <= cumulative for convex f" true
    (Windows.cost ~costs w <= cumulative +. 1e-9)

let test_windows_breaches () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1; p 0 0; p 0 0 ] in
  let costs = linear_costs 1 in
  let _, w = Windows.run_windowed ~window:2 ~k:10 ~costs Ccache_policies.Lru.policy t in
  (* window 0: 2 misses; window 1: 0 misses *)
  checki "breaches over threshold 1" 1 (Windows.breaches w ~user:0 ~threshold:1);
  checki "no breaches over threshold 2" 0 (Windows.breaches w ~user:0 ~threshold:2)

let test_windows_flush_ignored () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1 ] in
  let costs = linear_costs 1 in
  let _, w =
    Windows.run_windowed ~flush:true ~window:2 ~k:2 ~costs Ccache_policies.Lru.policy t
  in
  checkb "flush events not counted" true (Windows.total_misses w = [| 2 |])

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_costs () =
  let t = Trace.of_list ~n_users:2 [ p 0 0; p 1 0; p 0 1; p 1 1 ] in
  let costs = [| Cf.monomial ~beta:2.0 (); Cf.linear ~slope:3.0 () |] in
  let r = Engine.run ~k:10 ~costs Ccache_policies.Lru.policy t in
  (* user 0: 2 misses -> 4; user 1: 2 misses -> 6 *)
  checkf "total cost" 10.0 (Metrics.total_cost ~costs r);
  let per = Metrics.per_user_cost ~costs r in
  checkf "user0" 4.0 per.(0);
  checkf "user1" 6.0 per.(1);
  (* eviction accounting: no evictions -> 0 *)
  checkf "eviction accounting" 0.0
    (Metrics.total_cost ~accounting:Metrics.By_evictions ~costs r)

let test_metrics_comparison_table () =
  let t =
    Workloads.generate ~seed:3 ~length:300
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:20 ~skew:0.9)
  in
  let costs = linear_costs 2 in
  let results =
    List.map
      (fun pl -> Engine.run ~k:8 ~costs pl t)
      [ Ccache_policies.Lru.policy; Ccache_policies.Fifo.policy ]
  in
  let tbl = Metrics.comparison_table ~costs results in
  let s = Ccache_util.Ascii_table.to_string tbl in
  checkb "mentions lru" true
    (let rec has i =
       i + 3 <= String.length s && (String.sub s i 3 = "lru" || has (i + 1))
     in
     has 0)

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_sweep_helpers () =
  checkb "product" true
    (Sweep.product [ 1; 2 ] [ "a" ] = [ (1, "a"); (2, "a") ]);
  checki "product3 size" 8
    (List.length (Sweep.product3 [ 1; 2 ] [ 3; 4 ] [ 5; 6 ]));
  checkb "geometric" true (Sweep.geometric ~start:4 ~stop:32 ~factor:2.0 = [ 4; 8; 16; 32 ]);
  checkb "arithmetic" true (Sweep.arithmetic ~start:0 ~stop:6 ~step:3 = [ 0; 3; 6 ]);
  List.iter
    (fun factor ->
      match Sweep.geometric ~start:1 ~stop:6 ~factor with
      | _ -> Alcotest.failf "geometric factor %g must raise" factor
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; 1.0 ];
  (* stepping up to max_int must stop where the next point would wrap *)
  checkb "geometric to max_int" true
    (Sweep.geometric ~start:1 ~stop:max_int ~factor:2.0
    = List.init (Sys.int_size - 1) (fun i -> 1 lsl i));
  checkb "arithmetic to max_int" true
    (Sweep.arithmetic ~start:(max_int - 5) ~stop:max_int ~step:2
    = [ max_int - 5; max_int - 3; max_int - 1 ]);
  checkb "linspace ends" true
    (let l = Sweep.linspace ~start:0.0 ~stop:1.0 ~count:5 in
     List.nth l 0 = 0.0 && List.nth l 4 = 1.0 && List.length l = 5);
  checkb "run labels" true
    (Sweep.run [ 1; 2 ] ~f:(fun x -> x * x) = [ (1, 1); (2, 4) ])

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_engine_hit_miss_accounting;
          Alcotest.test_case "no eviction when room" `Quick test_engine_no_eviction_when_room;
          Alcotest.test_case "event log order" `Quick test_engine_event_log_order;
          Alcotest.test_case "costs length check" `Quick test_engine_costs_length_check;
          Alcotest.test_case "detects bad victim" `Quick test_engine_detects_bad_victim;
          Alcotest.test_case "early eviction hook" `Quick test_early_eviction_hook;
          Alcotest.test_case "alloc budget per request" `Quick
            test_engine_alloc_per_request;
        ] );
      ( "flush",
        [
          Alcotest.test_case "empties cache (online)" `Quick test_engine_flush_empties_cache;
          Alcotest.test_case "empties cache (offline)" `Quick test_engine_flush_offline_too;
        ] );
      ("safety", qsuite [ cache_safety_property ]);
      ( "windows",
        [
          Alcotest.test_case "partition" `Quick test_windows_partition;
          Alcotest.test_case "convexity gap" `Quick test_windows_cost_convexity_gap;
          Alcotest.test_case "breaches" `Quick test_windows_breaches;
          Alcotest.test_case "flush ignored" `Quick test_windows_flush_ignored;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "costs" `Quick test_metrics_costs;
          Alcotest.test_case "comparison table" `Quick test_metrics_comparison_table;
        ] );
      ("sweep", [ Alcotest.test_case "helpers" `Quick test_sweep_helpers ]);
    ]
