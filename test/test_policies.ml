(* Behavioural tests for the baseline policies: each test pins the
   policy's defining decision on a handcrafted sequence. *)

open Ccache_trace
module Engine = Ccache_sim.Engine
module Cf = Ccache_cost.Cost_function
module P = Ccache_policies

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let p u i = Page.make ~user:u ~id:i
let uni_costs n = Array.init n (fun _ -> Cf.linear ~slope:1.0 ())

let victims_of log =
  List.filter_map
    (function Engine.Miss_evict { victim; _ } -> Some victim | _ -> None)
    log

let run ?(n_users = 1) ?(k = 2) ?(costs = None) policy reqs =
  let t = Trace.of_list ~n_users reqs in
  let costs = Option.value costs ~default:(uni_costs n_users) in
  Engine.run_logged ~k ~costs policy t

(* ------------------------------------------------------------------ *)
(* LRU vs FIFO                                                         *)
(* ------------------------------------------------------------------ *)

let test_lru_evicts_least_recent () =
  (* a b a c : LRU evicts b (a was touched more recently) *)
  let _, log = run P.Lru.policy [ p 0 0; p 0 1; p 0 0; p 0 2 ] in
  checkb "evicts b" true (victims_of log = [ p 0 1 ])

let test_fifo_ignores_hits () =
  (* a b a c : FIFO evicts a (inserted first) despite the recent hit *)
  let _, log = run P.Fifo.policy [ p 0 0; p 0 1; p 0 0; p 0 2 ] in
  checkb "evicts a" true (victims_of log = [ p 0 0 ])

let test_lru_cycle_thrashes () =
  (* classical worst case: cycle over k+1 pages -> all misses *)
  let t = Workloads.generate ~seed:1 ~length:40 (Workloads.lru_nemesis ~k:4) in
  let r = Engine.run ~k:4 ~costs:(uni_costs 1) P.Lru.policy t in
  checki "all miss" 40 (Engine.misses r);
  (* Belady on the same trace hits most of the time *)
  let b = Engine.run ~k:4 ~costs:(uni_costs 1) P.Belady.policy t in
  checkb "belady far fewer misses" true (Engine.misses b * 2 < Engine.misses r)

(* ------------------------------------------------------------------ *)
(* LFU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lfu_keeps_frequent () =
  (* a a a b c : b has freq 1, a freq 3 -> evict b for c *)
  let _, log = run P.Lfu.policy [ p 0 0; p 0 0; p 0 0; p 0 1; p 0 2 ] in
  checkb "evicts infrequent" true (victims_of log = [ p 0 1 ])

let test_lfu_resets_on_eviction () =
  (* after eviction the page restarts at freq 1 *)
  let _, log =
    run P.Lfu.policy [ p 0 0; p 0 0; p 0 1; p 0 2; p 0 1; p 0 1; p 0 0; p 0 3 ]
  in
  (* a reaches freq 3; b is evicted for c, re-enters at freq 1 (reset)
     and only reaches 2, so the final insertion of d evicts b, not a *)
  List.iter
    (fun v -> checkb "never evicts hot a" false (Page.equal v (p 0 0)))
    (victims_of log);
  checkb "last eviction is the reset page" true
    (List.rev (victims_of log) |> List.hd = p 0 1)

(* ------------------------------------------------------------------ *)
(* LRU-K                                                               *)
(* ------------------------------------------------------------------ *)

let test_lru2_prefers_short_history () =
  (* a touched twice, b once; inserting c evicts b (no 2nd reference) *)
  let _, log = run P.Lru_k.lru_2 [ p 0 0; p 0 0; p 0 1; p 0 2 ] in
  checkb "evicts single-ref page" true (victims_of log = [ p 0 1 ])

let test_lru2_uses_kth_reference () =
  (* k=2 cache {a,b}; both referenced twice: a at times 0,1; b at 2,3.
     a's 2nd-most-recent (time 0) is older than b's (time 2): evict a. *)
  let _, log =
    run P.Lru_k.lru_2 [ p 0 0; p 0 0; p 0 1; p 0 1; p 0 2 ]
  in
  checkb "evicts older 2nd reference" true (victims_of log = [ p 0 0 ])

let test_lru2_differs_from_lru () =
  (* correlated double touches: LRU-2 sees through them *)
  let reqs = [ p 0 0; p 0 0; p 0 1; p 0 2; p 0 0 ] in
  let _, log2 = run P.Lru_k.lru_2 reqs in
  let _, log1 = run P.Lru.policy reqs in
  (* LRU evicts a (least recent at time of c); LRU-2 evicts b (1 ref) *)
  checkb "lru evicts a" true (List.hd (victims_of log1) = p 0 0);
  checkb "lru-2 evicts b" true (List.hd (victims_of log2) = p 0 1)

let test_lru_k_make_validation () =
  Alcotest.check_raises "k_refs >= 1"
    (Invalid_argument "Lru_k.make: k_refs must be >= 1") (fun () ->
      ignore (P.Lru_k.make ~k_refs:0))

(* ------------------------------------------------------------------ *)
(* Marking                                                             *)
(* ------------------------------------------------------------------ *)

let test_marking_protects_marked () =
  (* k=2: a b -> both marked; c starts a new phase, evicts an unmarked
     page; after c, marks = {c}; d evicts one of the now-unmarked a/b *)
  let _, log = run P.Marking.policy [ p 0 0; p 0 1; p 0 2; p 0 3 ] in
  let vs = victims_of log in
  checki "two evictions" 2 (List.length vs);
  checkb "never evicts just-marked c" false (List.mem (p 0 2) vs)

(* ------------------------------------------------------------------ *)
(* Landlord                                                            *)
(* ------------------------------------------------------------------ *)

let test_landlord_prefers_cheap_users () =
  (* user 0 weight 1, user 1 weight 10; cache {a0, b1}; inserting c0
     should evict the cheap user's page a0, not the expensive b1 *)
  let costs = [| Cf.linear ~slope:1.0 (); Cf.linear ~slope:10.0 () |] in
  let _, log =
    run ~n_users:2 ~costs:(Some costs) P.Landlord.static
      [ p 0 0; p 1 0; p 0 1 ]
  in
  checkb "evicts cheap page" true (victims_of log = [ p 0 0 ])

let test_landlord_credit_decay () =
  (* a b c d with k=2, equal weights.  Inserting c drains the uniform
     credit by the victim's credit (1): the survivor b is left at 0
     while fresh c holds 1, so inserting d evicts the drained b, not
     the fresher c — the defining GreedyDual decay behaviour. *)
  let _, log = run P.Landlord.static [ p 0 0; p 0 1; p 0 2; p 0 3 ] in
  checkb "decay order" true (victims_of log = [ p 0 0; p 0 1 ])

let test_landlord_ties_break_on_first_touch () =
  (* Equal weights, and page 5 is first touched before page 3, so the
     first-touch ranks (5 -> 0, 3 -> 1) order the tied pair opposite to
     their packed ints.  Inserting page 7 must evict page 5: a heap
     keyed by [Page.pack] would evict page 3 instead. *)
  let _, log = run P.Landlord.static [ p 0 5; p 0 3; p 0 7 ] in
  checkb "evicts first-touched page" true (victims_of log = [ p 0 5 ])

let test_landlord_adaptive_tracks_marginals () =
  (* convex user gets pricier after evictions: adaptive landlord starts
     protecting it; just assert it runs and differs from static on a
     workload where marginals diverge *)
  let costs = [| Cf.monomial ~beta:3.0 (); Cf.linear ~slope:1.0 () |] in
  let t =
    Workloads.generate ~seed:11 ~length:1500
      [
        Workloads.tenant (Workloads.Zipf { pages = 40; skew = 0.6 });
        Workloads.tenant (Workloads.Zipf { pages = 40; skew = 0.6 });
      ]
  in
  let st = Engine.run ~k:10 ~costs P.Landlord.static t in
  let ad = Engine.run ~k:10 ~costs P.Landlord.adaptive t in
  let cost r = Ccache_sim.Metrics.total_cost ~costs r in
  checkb "adaptive not worse on convex mix" true (cost ad <= cost st)

(* ------------------------------------------------------------------ *)
(* Belady / Convex-Belady                                              *)
(* ------------------------------------------------------------------ *)

let test_belady_optimal_miss_count () =
  (* compare against exact DP with uniform linear cost (DP minimises
     total misses then) on random small instances *)
  let rng = Ccache_util.Prng.create ~seed:99 in
  for _ = 1 to 10 do
    let len = 12 + Ccache_util.Prng.int rng 10 in
    let reqs =
      List.init len (fun _ -> p 0 (Ccache_util.Prng.int rng 5))
    in
    let t = Trace.of_list ~n_users:1 reqs in
    let costs = uni_costs 1 in
    let r = Engine.run ~k:3 ~costs P.Belady.policy t in
    let dp = Ccache_offline.Dp_opt.solve ~cache_size:3 ~costs t in
    checki "belady = DP misses" dp.Ccache_offline.Dp_opt.misses_per_user.(0)
      (Engine.misses r)
  done

let test_belady_requires_future () =
  checkb "needs future" true (Ccache_sim.Policy.needs_future P.Belady.policy);
  let t = Trace.of_list ~n_users:1 [ p 0 0 ] in
  (* engine builds the index automatically, so this must not raise *)
  let r = Engine.run ~k:1 ~costs:(uni_costs 1) P.Belady.policy t in
  checki "runs" 1 (Engine.misses r)

let test_convex_belady_prefers_cheap () =
  (* both pages dead after this point; the cheap user's page goes first *)
  let costs = [| Cf.linear ~slope:1.0 (); Cf.linear ~slope:100.0 () |] in
  let _, log =
    run ~n_users:2 ~costs:(Some costs) P.Convex_belady.policy
      [ p 0 0; p 1 0; p 0 1 ]
  in
  checkb "evicts cheap dead page" true (victims_of log = [ p 0 0 ])

(* ------------------------------------------------------------------ *)
(* Static partition                                                    *)
(* ------------------------------------------------------------------ *)

let test_static_partition_slice_sizes () =
  let sizes = P.Static_partition.slice_sizes ~k:10 ~n_users:3 in
  checki "total" 10 (Array.fold_left ( + ) 0 sizes);
  Array.iter (fun s -> checkb "everyone >= 1" true (s >= 1)) sizes;
  checkb "leftover to the first tenants" true (sizes = [| 4; 3; 3 |])

let test_static_partition_isolation () =
  (* user 0 churns through many pages; user 1 parks two pages and never
     loses them even though user 0 is starved *)
  let reqs =
    [ p 1 0; p 1 1 ]
    @ List.init 20 (fun i -> p 0 (i mod 6))
    @ [ p 1 0; p 1 1 ]
  in
  let t = Trace.of_list ~n_users:2 reqs in
  let r =
    Engine.run ~k:4 ~costs:(uni_costs 2) P.Static_partition.equal_split t
  in
  (* user 1's final touches are hits: its slice was never stolen *)
  checki "user1 misses only cold" 2 r.Engine.misses_per_user.(1);
  (* user 0 suffered: its 6-page working set lives in 2 slots *)
  checkb "user0 thrashes" true (r.Engine.misses_per_user.(0) > 10)

let test_static_partition_early_eviction () =
  (* user 0's slice (2 of k=4) fills and evicts its own LRU while the
     global cache still has room *)
  let t = Trace.of_list ~n_users:2 [ p 0 0; p 0 1; p 0 2 ] in
  let r, log =
    Engine.run_logged ~k:4 ~costs:(uni_costs 2) P.Static_partition.equal_split t
  in
  checki "one early eviction" 1 (Engine.evictions r);
  checkb "evicted own page" true
    (match victims_of log with [ v ] -> Page.user v = 0 | _ -> false)

(* ------------------------------------------------------------------ *)
(* CLOCK                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_second_chance () =
  (* a b a c : a's reference bit is set by the hit, so the sweep skips
     a (clearing its bit) and evicts b *)
  let _, log = run Ccache_policies.Clock.policy [ p 0 0; p 0 1; p 0 0; p 0 2 ] in
  checkb "second chance protects a" true (victims_of log = [ p 0 1 ])

let test_clock_degrades_to_fifo_without_hits () =
  (* no hits: all bits stay clear, CLOCK evicts in insertion order *)
  let _, log = run Ccache_policies.Clock.policy [ p 0 0; p 0 1; p 0 2; p 0 3 ] in
  checkb "fifo order" true (victims_of log = [ p 0 0; p 0 1 ])

let test_clock_two_lap_termination () =
  (* all pages referenced: the sweep clears every bit in one lap and
     evicts the hand's next page in the second *)
  let _, log =
    run Ccache_policies.Clock.policy
      [ p 0 0; p 0 1; p 0 0; p 0 1; p 0 2 ]
  in
  checkb "evicts oldest after clearing" true (victims_of log = [ p 0 0 ])

(* ------------------------------------------------------------------ *)
(* 2Q                                                                  *)
(* ------------------------------------------------------------------ *)

let test_2q_scan_resistance () =
  (* hot pages get re-referenced after a ghost interval and live in Am;
     a long one-touch scan churns only A1in *)
  let hot = [ p 0 0; p 0 1 ] in
  let reqs =
    hot
    (* evict them out of A1in so their identities land in A1out *)
    @ List.init 6 (fun i -> p 0 (10 + i))
    (* re-touch: promoted to Am *)
    @ hot
    (* scan traffic *)
    @ List.init 12 (fun i -> p 0 (100 + i))
    (* hot pages must still be resident *)
    @ hot
  in
  let t = Trace.of_list ~n_users:1 reqs in
  let r = Engine.run ~k:6 ~costs:(uni_costs 1) Ccache_policies.Two_q.policy t in
  (* the final two hot touches hit *)
  checkb "hot pages survive the scan" true (r.Engine.hits >= 2)

let test_2q_beats_lru_on_scan_mix () =
  let specs =
    [
      Workloads.tenant ~weight:1.0 (Workloads.Hot_cold { pages = 40; hot_pages = 6; hot_prob = 0.9 });
      Workloads.tenant ~weight:1.0 (Workloads.Sequential_scan { pages = 200; passes = 8 });
    ]
  in
  let t = Workloads.generate ~seed:31 ~length:4000 specs in
  let costs = uni_costs 2 in
  let q = Engine.run ~k:16 ~costs Ccache_policies.Two_q.policy t in
  let l = Engine.run ~k:16 ~costs P.Lru.policy t in
  checkb "2q fewer misses than lru under scans" true
    (Engine.misses q < Engine.misses l)

(* ------------------------------------------------------------------ *)
(* ARC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_arc_promotes_on_second_touch () =
  (* page touched twice lands in T2 and outlives one-touch traffic *)
  let reqs = [ p 0 0; p 0 0; p 0 1; p 0 2; p 0 3; p 0 0 ] in
  let t = Trace.of_list ~n_users:1 reqs in
  let r = Engine.run ~k:2 ~costs:(uni_costs 1) Ccache_policies.Arc.policy t in
  (* first touch of 0 misses, second hits; final touch of 0 hits if ARC
     kept it through the scan (T2 protection) *)
  checkb "frequency protection" true (r.Engine.hits >= 2)

let test_arc_ghost_adaptation_runs () =
  (* mixed recency/frequency traffic exercises both ghost lists; this
     is a smoke test that the adaptive machinery stays consistent over
     a long run (the engine validates every eviction) *)
  let specs =
    [
      Workloads.tenant (Workloads.Zipf { pages = 60; skew = 1.0 });
      Workloads.tenant (Workloads.Sequential_scan { pages = 120; passes = 6 });
    ]
  in
  let t = Workloads.generate ~seed:77 ~length:6000 specs in
  let costs = uni_costs 2 in
  let r = Engine.run ~k:24 ~costs Ccache_policies.Arc.policy t in
  checkb "ran to completion" true (r.Engine.hits + Engine.misses r = 6000);
  (* ARC should not be worse than FIFO on this mix *)
  let f = Engine.run ~k:24 ~costs P.Fifo.policy t in
  checkb "arc <= fifo misses" true (Engine.misses r <= Engine.misses f)

let test_arc_flush_clean () =
  let t =
    Workloads.generate ~seed:5 ~length:500
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:20 ~skew:0.8)
  in
  let r =
    Engine.run ~flush:true ~k:8 ~costs:(uni_costs 2) Ccache_policies.Arc.policy t
  in
  checkb "flush empties" true (r.Engine.final_cache = []);
  checkb "evictions = misses" true
    (r.Engine.misses_per_user = r.Engine.evictions_per_user)

(* ------------------------------------------------------------------ *)
(* Randomized marking                                                  *)
(* ------------------------------------------------------------------ *)

let test_randomized_marking_protects_marked () =
  (* same phase structure as deterministic marking: freshly marked
     pages are never victims within the phase *)
  let _, log =
    run P.Randomized_marking.policy [ p 0 0; p 0 1; p 0 2; p 0 3 ]
  in
  let vs = victims_of log in
  checki "two evictions" 2 (List.length vs);
  checkb "never evicts just-marked c" false (List.mem (p 0 2) vs)

let test_randomized_marking_seeded () =
  let t =
    Workloads.generate ~seed:8 ~length:600
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:25 ~skew:0.6)
  in
  let costs = uni_costs 2 in
  let a = Engine.run ~k:8 ~costs P.Randomized_marking.policy t in
  let b = Engine.run ~k:8 ~costs P.Randomized_marking.policy t in
  checkb "same seed, same run" true
    (a.Engine.misses_per_user = b.Engine.misses_per_user)

(* ------------------------------------------------------------------ *)
(* Random + registry                                                   *)
(* ------------------------------------------------------------------ *)

let test_random_deterministic_by_seed () =
  let t =
    Workloads.generate ~seed:2 ~length:500
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:30 ~skew:0.5)
  in
  let costs = uni_costs 2 in
  let a = Engine.run ~k:8 ~costs P.Random_policy.policy t in
  let b = Engine.run ~k:8 ~costs P.Random_policy.policy t in
  checkb "same seed same run" true
    (a.Engine.misses_per_user = b.Engine.misses_per_user)

let test_registry () =
  let names = List.map Ccache_sim.Policy.name P.Registry.all in
  checki "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  checkb "lru listed" true (List.mem "lru" names);
  checki "online + offline = all" (List.length P.Registry.all)
    (List.length P.Registry.online + List.length P.Registry.offline)

(* ------------------------------------------------------------------ *)
(* Decisions                                                           *)
(* ------------------------------------------------------------------ *)

(* Every policy's full decision log, pinned by hash: each policy runs
   on three generated traces at k = 4 and 64, without and with the
   terminal flush, and each event log (kind, position, page, victim) is
   hashed with [Prng.hash_decimals].  A refactor that keeps every
   decision keeps every hash; re-record a row only with a change that
   means to move that policy's victims. *)

let decision_policies =
  P.Registry.all @ [ Ccache_core.Alg_discrete.policy; Ccache_core.Alg_fast.policy ]

let decision_traces =
  let gen name specs = (name, Workloads.generate ~seed:7 ~length:3000 specs) in
  [
    gen "sqlvm" (Workloads.sqlvm_mix ~scale:1);
    gen "zipf" (Workloads.symmetric_zipf ~tenants:3 ~pages_per_tenant:100 ~skew:0.9);
    gen "cycle"
      Workloads.
        [ tenant (Cycle { pages = 5 }); tenant ~weight:2.0 (Cycle { pages = 66 }) ];
  ]

let event_fields = function
  | Engine.Hit { pos; page } -> [ 0; pos; Page.pack page; -1 ]
  | Engine.Miss_insert { pos; page } -> [ 1; pos; Page.pack page; -1 ]
  | Engine.Miss_evict { pos; page; victim } ->
      [ 2; pos; Page.pack page; Page.pack victim ]

let decision_hashes policy =
  List.concat_map
    (fun (name, t) ->
      let costs =
        Array.init (Trace.n_users t) (fun u ->
            Cf.monomial ~beta:(float_of_int (1 + (u mod 3))) ())
      in
      List.concat_map
        (fun k ->
          List.map
            (fun flush ->
              let _, log = Engine.run_logged ~flush ~k ~costs policy t in
              let fields = Array.of_list (List.concat_map event_fields log) in
              let n = Array.length fields in
              ( Printf.sprintf "%s k=%d flush=%b" name k flush,
                Ccache_util.Prng.hash_decimals ~n (Array.get fields)
                  (Helpers.ids_of_array (Array.init n Fun.id)) ))
            [ false; true ])
        [ 4; 64 ])
    decision_traces

(* one row per policy, one line per trace of [decision_traces]: k=4
   without and with the flush, then k=64 likewise *)
let recorded_decisions : (string * int64 array) list =
  [
    ( "lru",
      [|
        0x30f06b9867f8d2a3L; 0x25d5c49c2134331cL; 0x3048a57a4506c9dcL; 0xe86ff4f58bcc01ebL;
        0xe7ab7eaae3bc0d73L; 0x57e41d19b2190508L; 0x7fd9479812acc81L; 0x80f45a037e35811eL;
        0xf42bcf7da52a510dL; 0x21b3231c8ce7ff0dL; 0x4bb4db495850f12fL; 0x7b0e5064755ad7adL;
      |] );
    ( "fifo",
      [|
        0x25784209bb7b2fe8L; 0xb9983d27279a1209L; 0x4bb65bf652b45bdaL; 0xf42512918453f8cdL;
        0xbd1989ecd5df5672L; 0x7346645bce56d1d5L; 0xd50c24c3bf9be3b4L; 0x50c5f5cd880deb2cL;
        0xf42bcf7da52a510dL; 0x21b3231c8ce7ff0dL; 0x48b04573830e63L; 0xb99afe786c3a9c7fL;
      |] );
    ( "lfu",
      [|
        0x2a2f4d494ab40774L; 0x9501e6df7be7c241L; 0x2c495d39d36ad66dL; 0x9e438e3b839dfde8L;
        0xa37975383c85a61L; 0x550efa7ea3a05bb9L; 0xd75705d8e0b987d9L; 0xbce18d5a21b5630cL;
        0x2839cd4470a02ba1L; 0xe74d49573a97d0f8L; 0x7bb489ab3a329638L; 0x5ff6f26e2ce628fcL;
      |] );
    ( "random",
      [|
        0xda2de67f9331282eL; 0x4c9f910c8920331aL; 0x542954217b385e52L; 0xe64030ad033a8669L;
        0x133aae3256244a02L; 0x8f4d7d081d574c33L; 0x3c6424ca634b7a66L; 0x9c5321b0f263d5bcL;
        0x1b9f523dd4c39cdeL; 0xe0da8b5be0903f5cL; 0x51f6bfe29a8fdd82L; 0x6b56e17f98fcd1a7L;
      |] );
    ( "marking",
      [|
        0x23aabaa4332ebbc9L; 0xec7311b65587b526L; 0xf612888af024ee2L; 0x28f6d6df4fde80e3L;
        0xd3a0075d3ecce1a5L; 0x9d0f25cdff520dc4L; 0xa8fcd0a58737a0b2L; 0x35b494cfcf91dc8fL;
        0x80a30a733704e4c1L; 0x38ed2903f6e997dfL; 0xaaa2506e1d01e817L; 0x136851fab9ae5949L;
      |] );
    ( "lru-2",
      [|
        0xa4a1baab8e3f64cL; 0x449d1cfbbfd38eb7L; 0xf96a7ca7a3c318bbL; 0x69b3396cfa5373daL;
        0x8f45294691383eafL; 0x9adbdd350a217236L; 0x3173eb0500837350L; 0xe0bf1cee38e12448L;
        0xde86f17bae59c59dL; 0x8d433d0954a57119L; 0x4bb4db495850f12fL; 0x58600fd4e2d4af67L;
      |] );
    ( "lru-3",
      [|
        0xbd4913c773c1b114L; 0x1b2f7e37cc8a5782L; 0x24b3c00611dcd276L; 0x1da577684eac50e7L;
        0x5f9e63d87ffe96dbL; 0x3e62ba89012a753dL; 0xdfa6df89ca7fc279L; 0x456f16f23aa967f7L;
        0xd337af8f83fe52a7L; 0xda85cbd9ff82494bL; 0x4bb4db495850f12fL; 0x58600fd4e2d4af67L;
      |] );
    ( "landlord-static",
      [|
        0x7c63739c397a9b19L; 0x68da566834ee5fbeL; 0x9ec7ad108f4942e0L; 0x3e08946893d7c7cfL;
        0x2c3f1dd1ce4e84b6L; 0x8d48a1fecef938f9L; 0x30b4ee7296a9cbbbL; 0x9b98861a5b1c101bL;
        0x2ad9057cd9f40b4bL; 0xb9e58a182aaa417fL; 0xd4025d0bf6cd66dfL; 0x20ad3ebbedc300d9L;
      |] );
    ( "landlord-adaptive",
      [|
        0xda5b10a8df45852dL; 0x75da1177d79f4aceL; 0xf974b29b1eda85cL; 0x785c0ab1bc4f18c5L;
        0xd34fc200c2347cefL; 0x7f6a3b4671c27377L; 0x65aeb395faa419ebL; 0x84aa1c5afcc188d1L;
        0x31bb17d60b67fb9bL; 0xd6683cef7db65c51L; 0x6e0a097b3d0eb7e7L; 0x76903817b05422b9L;
      |] );
    ( "static-partition",
      [|
        0xeecc05e45af9034eL; 0x1eb26512a1a54692L; 0x7fe81cfc5fa279bcL; 0x66ba48ce18bbeb28L;
        0x971af87f9792c200L; 0x696acddccbf5c0e6L; 0xda1c130586b9e4bcL; 0x6a7ab5742de85567L;
        0xc4d770bb81019d9fL; 0xb7232da93c99ec97L; 0xa58cff64f0c3c3a2L; 0xf11e2323a4fe4e78L;
      |] );
    ( "clock",
      [|
        0x34407c99673ec196L; 0x40d16fc4f082b6b7L; 0x12352493de449ccbL; 0xfb865b944b72347aL;
        0xad24a10a21503892L; 0x492aef3941e5e4f5L; 0xf14663d4199dd560L; 0x9f6d4949e941f80cL;
        0xf42bcf7da52a510dL; 0x21b3231c8ce7ff0dL; 0x4bb4db495850f12fL; 0x58600fd4e2d4af67L;
      |] );
    ( "2q",
      [|
        0x49580cfce01293b7L; 0xd028167696148403L; 0xa7209040f454752L; 0x480b3877af16d9acL;
        0xca2e5428bdf1c8ccL; 0xb3ba31a700bd74e9L; 0x6df58f7874665edcL; 0xc1ed4a5046a29b7bL;
        0xba13d14f5437c2ffL; 0x4bcfd091f0542dcfL; 0xe5d794477260f824L; 0xf454ca7490a28d82L;
      |] );
    ( "arc",
      [|
        0x45f81cf8c45510a3L; 0x4f5fc0e031fe779dL; 0x114300557b1f8caaL; 0x23f51694ee03e40dL;
        0x47f4a3c5a849e530L; 0x443181e599178381L; 0x9277aace89107a02L; 0xebf22d59b0c36fdbL;
        0xf42bcf7da52a510dL; 0x21b3231c8ce7ff0dL; 0x4bb4db495850f12fL; 0x58600fd4e2d4af67L;
      |] );
    ( "randomized-marking",
      [|
        0x6a7bc4387d1c36cL; 0x8799af5a3a0f1f2dL; 0xf42fc1fa092fbfacL; 0xbfdd81c35163e02dL;
        0x27d0f5a5aecf26L; 0x3e9b989cf1878d7fL; 0xd8cfb1ceab810700L; 0xb12ebe41bacbb144L;
        0x9dc0380789e29e38L; 0x2a8ea8fa7b2ee7eeL; 0x2134e38c2e96e0bcL; 0xc480c70e58e05a79L;
      |] );
    ( "belady",
      [|
        0xf96231b9939dfa5fL; 0x4fead726ec4132cL; 0xfda7de50f14117bfL; 0x3718bf1787e9ad35L;
        0x9e5c106ce7fabccL; 0x666b23a96900d262L; 0x188ead05e5877f9fL; 0xc600a38d4dce5293L;
        0x8acd9a858855e5c4L; 0xfe0948dcf258ac4aL; 0xad76ae111fdbeaceL; 0x78bb194bfad75feL;
      |] );
    ( "convex-belady",
      [|
        0x7205889b30ad416L; 0x5f4a4113743eb371L; 0xc290dc815cd6cef5L; 0xf62133cf8665fe13L;
        0xf155e857ad4ad260L; 0xc0b76f3c7b2d28e3L; 0x8a28db456864900fL; 0x570c2e72b9a59741L;
        0x410675dffd58f260L; 0xc8aef1f2a558a384L; 0x9bd6381f6f7c68b0L; 0x71283869c7b50807L;
      |] );
    ( "alg-discrete",
      [|
        0x4534db4e20f2b9a5L; 0x711e7b311f0ae626L; 0x4c822b17814b4a7L; 0x2a90c69e9b795d1bL;
        0x6eb9354f82aa71faL; 0x68422b36a54bf2e2L; 0xd638697d0f523ba9L; 0xb7d8f9b5499f89ebL;
        0x6498bb5c0ac98bb3L; 0x76293df850aa6e39L; 0x5e70f26a5e4d75f3L; 0x5d38165d25835d55L;
      |] );
    ( "alg-discrete-fast",
      [|
        0x4534db4e20f2b9a5L; 0x711e7b311f0ae626L; 0x4c822b17814b4a7L; 0x2a90c69e9b795d1bL;
        0x6eb9354f82aa71faL; 0x68422b36a54bf2e2L; 0xd638697d0f523ba9L; 0xb7d8f9b5499f89ebL;
        0x6498bb5c0ac98bb3L; 0x76293df850aa6e39L; 0x5e70f26a5e4d75f3L; 0x5d38165d25835d55L;
      |] );
  ]

(* ------------------------------------------------------------------ *)
(* Reference models                                                    *)
(* ------------------------------------------------------------------ *)

(* Naive list programs for five baselines, written from each policy's
   definition and nothing else.  A model keeps its own copy of the
   cache and is driven by an engine run's event log: a hit touches a
   page, a miss inserts it, and each eviction (flush ones included)
   asks the model for its victim, which must be the policy's.  While
   the victims agree, the model's cache is the engine's. *)
module Model = struct
  type t = {
    hit : Page.t -> unit;
    insert : Page.t -> unit;
    victim : unit -> Page.t;  (** chosen and dropped from the model *)
  }

  let without page = List.filter (fun q -> not (Page.equal q page))

  let rec last = function
    | [ x ] -> x
    | _ :: rest -> last rest
    | [] -> Alcotest.fail "model: victim of an empty cache"

  let drop_last cache () =
    let v = last !cache in
    cache := without v !cache;
    v

  (* most recent first *)
  let lru () =
    let cache = ref [] in
    {
      hit = (fun page -> cache := page :: without page !cache);
      insert = (fun page -> cache := page :: !cache);
      victim = drop_last cache;
    }

  (* newest first; a hit changes nothing *)
  let fifo () =
    let cache = ref [] in
    {
      hit = ignore;
      insert = (fun page -> cache := page :: !cache);
      victim = drop_last cache;
    }

  (* the ring from the hand (the oldest entry) round to the entry the
     hand passed last, each with its reference bit *)
  let clock () =
    let ring = ref [] in
    let rec sweep () =
      match !ring with
      | (q, true) :: rest ->
          ring := rest @ [ (q, false) ];
          sweep ()
      | (q, false) :: rest ->
          ring := rest;
          q
      | [] -> Alcotest.fail "model: victim of an empty cache"
    in
    {
      hit =
        (fun page -> ring := List.map (fun (q, r) -> (q, r || Page.equal q page)) !ring);
      insert = (fun page -> ring := !ring @ [ (page, false) ]);
      victim = sweep;
    }

  (* each cached page with its hits since insertion, plus one; the
     fewest go first, and a tie goes to the page the run requested
     first *)
  let lfu () =
    let cache = ref [] and seen = ref [] in
    let first_touch page =
      let rec index i = function
        | [] -> Alcotest.fail "model: page never inserted"
        | q :: rest -> if Page.equal q page then i else index (i + 1) rest
      in
      index 0 !seen
    in
    let victim () =
      let key (q, n) = (n, first_touch q) in
      match !cache with
      | [] -> Alcotest.fail "model: victim of an empty cache"
      | e :: rest ->
          let v, _ = List.fold_left (fun m e -> if key e < key m then e else m) e rest in
          cache := List.filter (fun (q, _) -> not (Page.equal q v)) !cache;
          v
    in
    {
      hit =
        (fun page ->
          cache := List.map (fun (q, n) -> (q, if Page.equal q page then n + 1 else n)) !cache);
      insert =
        (fun page ->
          if not (List.exists (Page.equal page) !seen) then seen := !seen @ [ page ];
          cache := (page, 1) :: !cache);
      victim;
    }

  (* unmarked pages in victim order, and the marked ones; when none is
     unmarked a new phase unmarks every page in [Page.compare] order *)
  let marking () =
    let unmarked = ref [] and marked = ref [] in
    let mark page =
      if not (List.exists (Page.equal page) !marked) then begin
        unmarked := without page !unmarked;
        marked := page :: !marked
      end
    in
    let victim () =
      if !unmarked = [] then begin
        unmarked := List.sort Page.compare !marked;
        marked := []
      end;
      match !unmarked with
      | v :: rest ->
          unmarked := rest;
          v
      | [] -> Alcotest.fail "model: victim of an empty cache"
    in
    { hit = mark; insert = mark; victim }

  (* The first eviction whose victim differs from the model's, if any.
     A flush request (its user is the dummy [n_users]) evicts without
     inserting. *)
  let disagreement ~n_users model log =
    let rec go = function
      | [] -> None
      | Engine.Hit { page; _ } :: rest ->
          model.hit page;
          go rest
      | Engine.Miss_insert { page; _ } :: rest ->
          model.insert page;
          go rest
      | Engine.Miss_evict { pos; page; victim } :: rest ->
          let v = model.victim () in
          if not (Page.equal v victim) then
            Some
              (Printf.sprintf "pos %d: the policy evicts %s, the model %s" pos
                 (Page.to_string victim) (Page.to_string v))
          else begin
            if Page.user page < n_users then model.insert page;
            go rest
          end
    in
    go log

  (* cache size, users, flush, requests over a 12-page-per-user
     universe: small enough that evictions and ties are frequent *)
  let gen =
    let open QCheck.Gen in
    let* k = int_range 1 8 in
    let* n_users = int_range 1 3 in
    let* flush = bool in
    let page =
      map2 (fun u i -> Page.make ~user:u ~id:i) (int_bound (n_users - 1)) (int_bound 11)
    in
    let* pages = list_size (int_bound 200) page in
    return (k, n_users, flush, pages)

  let print (k, n_users, flush, pages) =
    Printf.sprintf "k=%d users=%d flush=%b [%s]" k n_users flush
      (String.concat " " (List.map Page.to_string pages))

  let check policy model (k, n_users, flush, pages) =
    let _, log =
      Engine.run_logged ~flush ~k ~costs:(uni_costs n_users) policy
        (Trace.of_list ~n_users pages)
    in
    disagreement ~n_users (model ()) log
end

let model_properties =
  List.map
    (fun (policy, model) ->
      QCheck.Test.make
        ~name:(Ccache_sim.Policy.name policy ^ " victims match the list model")
        ~count:300
        (QCheck.make ~print:Model.print Model.gen)
        (fun case ->
          match Model.check policy model case with
          | None -> true
          | Some msg -> QCheck.Test.fail_report msg))
    [
      (P.Lru.policy, Model.lru);
      (P.Fifo.policy, Model.fifo);
      (P.Clock.policy, Model.clock);
      (P.Lfu.policy, Model.lfu);
      (P.Marking.policy, Model.marking);
    ]

(* LRU with its victim taken from the wrong end of the recency list: the
   most recently used page.  Test-only; the LRU model must catch it. *)
let lru_wrong_end =
  Ccache_sim.Policy.make ~name:"lru-wrong-end" (fun _ ->
      let recency = ref [] in
      {
        Ccache_sim.Policy.on_hit =
          (fun ~pos:_ page -> recency := page :: Model.without page !recency);
        wants_evict = Ccache_sim.Policy.never_evict_early;
        choose_victim = (fun ~pos:_ ~incoming:_ -> List.hd !recency);
        on_insert = (fun ~pos:_ page -> recency := page :: !recency);
        on_evict = (fun ~pos:_ page -> recency := Model.without page !recency);
      })

let test_models_catch_lru_mutant () =
  let rand = Random.State.make [| 22 |] in
  let cases = List.init 100 (fun _ -> QCheck.Gen.generate1 ~rand Model.gen) in
  let caught policy =
    List.length (List.filter (fun c -> Model.check policy Model.lru c <> None) cases)
  in
  checki "real lru agrees on every case" 0 (caught P.Lru.policy);
  checkb "the mutant is caught" true (caught lru_wrong_end > 0)

let decision_cases =
  List.map
    (fun policy ->
      let name = Ccache_sim.Policy.name policy in
      Alcotest.test_case name `Quick (fun () ->
          match List.assoc_opt name recorded_decisions with
          | None -> Alcotest.failf "no recorded decisions for %s" name
          | Some recorded ->
              List.iter2
                (fun (label, got) want -> Alcotest.(check int64) label want got)
                (decision_hashes policy) (Array.to_list recorded)))
    decision_policies

let () =
  Alcotest.run "ccache_policies"
    [
      ( "lru/fifo",
        [
          Alcotest.test_case "lru least recent" `Quick test_lru_evicts_least_recent;
          Alcotest.test_case "fifo ignores hits" `Quick test_fifo_ignores_hits;
          Alcotest.test_case "lru cycle thrash" `Quick test_lru_cycle_thrashes;
        ] );
      ( "lfu",
        [
          Alcotest.test_case "keeps frequent" `Quick test_lfu_keeps_frequent;
          Alcotest.test_case "reset on eviction" `Quick test_lfu_resets_on_eviction;
        ] );
      ( "lru-k",
        [
          Alcotest.test_case "short history first" `Quick test_lru2_prefers_short_history;
          Alcotest.test_case "kth reference" `Quick test_lru2_uses_kth_reference;
          Alcotest.test_case "differs from lru" `Quick test_lru2_differs_from_lru;
          Alcotest.test_case "validation" `Quick test_lru_k_make_validation;
        ] );
      ("marking", [ Alcotest.test_case "protects marked" `Quick test_marking_protects_marked ]);
      ( "landlord",
        [
          Alcotest.test_case "prefers cheap users" `Quick test_landlord_prefers_cheap_users;
          Alcotest.test_case "credit decay" `Quick test_landlord_credit_decay;
          Alcotest.test_case "ties break on first touch" `Quick
            test_landlord_ties_break_on_first_touch;
          Alcotest.test_case "adaptive marginals" `Quick test_landlord_adaptive_tracks_marginals;
        ] );
      ( "belady",
        [
          Alcotest.test_case "optimal miss count" `Quick test_belady_optimal_miss_count;
          Alcotest.test_case "requires future" `Quick test_belady_requires_future;
          Alcotest.test_case "convex prefers cheap" `Quick test_convex_belady_prefers_cheap;
        ] );
      ( "static partition",
        [
          Alcotest.test_case "slice sizes" `Quick test_static_partition_slice_sizes;
          Alcotest.test_case "isolation" `Quick test_static_partition_isolation;
          Alcotest.test_case "early eviction" `Quick test_static_partition_early_eviction;
        ] );
      ( "clock",
        [
          Alcotest.test_case "second chance" `Quick test_clock_second_chance;
          Alcotest.test_case "fifo without hits" `Quick test_clock_degrades_to_fifo_without_hits;
          Alcotest.test_case "two-lap termination" `Quick test_clock_two_lap_termination;
        ] );
      ( "2q",
        [
          Alcotest.test_case "scan resistance" `Quick test_2q_scan_resistance;
          Alcotest.test_case "beats lru on scans" `Quick test_2q_beats_lru_on_scan_mix;
        ] );
      ( "arc",
        [
          Alcotest.test_case "second-touch promotion" `Quick test_arc_promotes_on_second_touch;
          Alcotest.test_case "ghost adaptation" `Quick test_arc_ghost_adaptation_runs;
          Alcotest.test_case "flush clean" `Quick test_arc_flush_clean;
        ] );
      ( "randomized-marking",
        [
          Alcotest.test_case "protects marked" `Quick test_randomized_marking_protects_marked;
          Alcotest.test_case "seeded" `Quick test_randomized_marking_seeded;
        ] );
      ( "misc",
        [
          Alcotest.test_case "random determinism" `Quick test_random_deterministic_by_seed;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "models",
        Alcotest.test_case "models catch an lru mutant" `Quick
          test_models_catch_lru_mutant
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) model_properties );
      ("decisions", decision_cases);
    ]
