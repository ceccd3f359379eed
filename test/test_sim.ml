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

(* Three wrong victims, each named from position 2 on: a page the run
   requested but no longer caches, a page it never requested, and the
   incoming page itself.  Before that the policy evicts its last
   insert, which is right at k = 1. *)
type bad_victim = Stale | Never | Incoming

let bad_victim_policy kind =
  Policy.make ~name:"bad-victim" (fun _ ->
      let last = ref (p 0 0) in
      {
        Policy.on_hit = Policy.no_hit;
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos ~incoming ->
            if pos < 2 then !last
            else
              match kind with
              | Stale -> p 0 0
              | Never -> p 0 99
              | Incoming -> incoming);
        on_insert = (fun ~pos:_ page -> last := page);
        on_evict = Policy.no_evict;
      })

(* Every wrong victim raises [Policy_error], whether the request came
   from a trace ([step]), from [feed], or from the terminal flush (at
   k = 1 over [a; b], the flush's first request is at position 2). *)
let test_engine_rejects_bad_victims () =
  let costs = linear_costs 1 in
  let a = p 0 0 and b = p 0 1 and c = p 0 2 in
  let raises name f =
    match f () with
    | exception Engine.Policy_error _ -> ()
    | _ -> Alcotest.failf "%s: no Policy_error" name
  in
  List.iter
    (fun (kind, kname) ->
      let policy = bad_victim_policy kind in
      let stepped ~flush pages () =
        ignore
          (Engine.run ~flush ~k:1 ~costs policy (Trace.of_list ~n_users:1 pages))
      in
      let fed ~flush pages () =
        let st =
          Engine.Step.init ~flush ~k:1 ~costs policy (Trace.of_list ~n_users:1 pages)
        in
        List.iter (Engine.Step.feed st) pages;
        ignore (Engine.Step.finish st)
      in
      raises (kname ^ " step") (stepped ~flush:false [ a; b; c ]);
      raises (kname ^ " feed") (fed ~flush:false [ a; b; c ]);
      raises (kname ^ " step flush") (stepped ~flush:true [ a; b ]);
      raises (kname ^ " feed flush") (fed ~flush:true [ a; b ]))
    [ (Stale, "cached earlier"); (Never, "never requested"); (Incoming, "incoming") ]

(* A state is keyed by its trace's dictionary: [feed] replays any page
   of it, in any order, and refuses a page the trace never requests
   (the trace's interner is shared and never written). *)
let test_engine_feed_within_dictionary () =
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1 ] in
  let st = Engine.Step.init ~k:1 ~costs:(linear_costs 1) Ccache_policies.Lru.policy t in
  List.iter (Engine.Step.feed st) [ p 0 1; p 0 1; p 0 0 ];
  Alcotest.check_raises "feed outside the dictionary"
    (Invalid_argument "Engine.Step.feed: page outside the trace's dictionary")
    (fun () -> Engine.Step.feed st (p 0 2));
  let r = Engine.Step.finish st in
  checki "fed requests" 3 r.Engine.trace_length;
  checki "hits" 1 r.Engine.hits;
  checkb "final cache" true (r.Engine.final_cache = [ p 0 0 ])

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

(* The flush runs until the cache is empty, not for all k dummy
   requests: at k = 2^40 it returns, and its event log (dummy
   positions and ids included) and per-user counts are those of the
   smallest k that holds every page, where nothing is evicted before
   the flush either. *)
let test_engine_flush_stops_when_empty () =
  let t =
    Workloads.generate ~seed:5 ~length:300
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:40 ~skew:0.6)
  in
  let costs = linear_costs 2 in
  List.iter
    (fun policy ->
      let run k = Engine.run_logged ~flush:true ~k ~costs policy t in
      let huge, huge_log = run (1 lsl 40) in
      let fit, fit_log = run (Trace.n_pages t) in
      let name = Ccache_sim.Policy.name policy in
      checkb (name ^ ": same event log") true (huge_log = fit_log);
      checkb (name ^ ": same misses") true
        (huge.Engine.misses_per_user = fit.Engine.misses_per_user);
      checkb (name ^ ": same evictions") true
        (huge.Engine.evictions_per_user = fit.Engine.evictions_per_user);
      checkb (name ^ ": cache empty") true (huge.Engine.final_cache = []))
    [
      Ccache_policies.Lru.policy;
      Ccache_policies.Fifo.policy;
      Ccache_policies.Landlord.adaptive;
      Ccache_core.Alg_fast.policy;
    ]

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
(* Engine.Step as a state machine                                      *)
(* ------------------------------------------------------------------ *)

(* A model-based oracle on the stepping engine.  After [init], each
   command must preserve one invariant [inv]:

   - occupancy <= k;
   - a victim is cached and differs from the incoming page;
   - per user, hits + misses = requests and inserts = evictions +
     resident;
   - [final_cache] equals the model's resident set, and a flushed
     finish empties it.

   The model is a resident set plus per-user counters, advanced from
   the engine's own events; [Finish] then compares the engine's result
   with it.  Online policies run twice over the trace of the fed pages,
   through [feed] and through [step], and the two runs must agree event
   for event.  Offline policies need the whole trace up front, so they
   run only the [step] form, over a prebuilt index. *)
module Ssm = struct
  type cmd =
    | Feed of Page.t
    | Evict of int  (** the (i mod occupancy)-th cached page, if any *)
    | Evict_uncached of int  (** must raise [Invalid_argument] *)
    | Finish

  type model = {
    k : int;
    n_users : int;
    mutable resident : Page.Set.t;
    requests : int array;
    hits : int array;
    misses : int array;
    inserts : int array;
    evictions : int array;
    mutable fed : int;
  }

  let model ~k ~n_users =
    let z () = Array.make n_users 0 in
    {
      k;
      n_users;
      resident = Page.Set.empty;
      requests = z ();
      hits = z ();
      misses = z ();
      inserts = z ();
      evictions = z ();
      fed = 0;
    }

  let bump a i = a.(i) <- a.(i) + 1

  let resident_of m u =
    Page.Set.fold (fun q n -> if Page.user q = u then n + 1 else n) m.resident 0

  let inv m =
    Page.Set.cardinal m.resident <= m.k
    && Array.for_all Fun.id
         (Array.init m.n_users (fun u ->
              m.hits.(u) + m.misses.(u) = m.requests.(u)
              && m.inserts.(u) = m.evictions.(u) + resident_of m u))

  let evict_victim m victim =
    if not (Page.Set.mem victim m.resident) then
      Alcotest.failf "victim %s is not cached" (Page.to_string victim);
    m.resident <- Page.Set.remove victim m.resident;
    bump m.evictions (Page.user victim)

  (* One request's events: exactly one decision, at the right position,
     about the right page, legal for the model's cache. *)
  let on_request m page events =
    let pos = m.fed in
    m.fed <- pos + 1;
    bump m.requests (Page.user page);
    let insert () =
      bump m.misses (Page.user page);
      bump m.inserts (Page.user page);
      m.resident <- Page.Set.add page m.resident
    in
    match events with
    | [ Engine.Hit { pos = p; page = q } ] when p = pos && Page.equal q page ->
        if not (Page.Set.mem page m.resident) then
          Alcotest.failf "hit on uncached %s" (Page.to_string page);
        bump m.hits (Page.user page)
    | [ Engine.Miss_insert { pos = p; page = q } ] when p = pos && Page.equal q page ->
        if Page.Set.mem page m.resident then
          Alcotest.failf "miss on cached %s" (Page.to_string page);
        if Page.Set.cardinal m.resident >= m.k then
          Alcotest.fail "insert into a full cache";
        insert ()
    | [ Engine.Miss_evict { pos = p; page = q; victim } ]
      when p = pos && Page.equal q page ->
        if Page.Set.mem page m.resident then
          Alcotest.failf "miss on cached %s" (Page.to_string page);
        if Page.equal victim page then Alcotest.fail "victim = incoming page";
        evict_victim m victim;
        insert ()
    | evs -> Alcotest.failf "request %d: %d events" pos (List.length evs)

  (* The flush's events: one per dummy request, each evicting a real
     cached page. *)
  let on_flush m events =
    List.iter
      (function
        | Engine.Miss_evict { page; victim; _ } when Page.user page = m.n_users ->
            evict_victim m victim
        | _ -> Alcotest.fail "flush emitted a non-flush event")
      events

  let check_result m ~flush (r : Engine.result) =
    let expect what b = if not b then Alcotest.failf "finish: %s" what in
    expect "invariant" (inv m);
    expect "resident = final_cache"
      (r.Engine.final_cache = Page.Set.elements m.resident);
    if flush then expect "flushed cache is empty" (r.Engine.final_cache = []);
    expect "misses per user" (r.Engine.misses_per_user = m.misses);
    expect "evictions per user" (r.Engine.evictions_per_user = m.evictions);
    expect "hits" (r.Engine.hits = Array.fold_left ( + ) 0 m.hits);
    expect "trace length" (r.Engine.trace_length = m.fed)

  (* Runs [cmds] against a fresh state; [advance st page] replays the
     next request.  Returns the event log and the result. *)
  let run ~k ~n_users ~flush ~advance ~init cmds =
    let log = ref [] in
    let pending = ref [] in
    let on_event ev =
      pending := ev :: !pending;
      log := ev :: !log
    in
    let st = init ~on_event in
    let m = model ~k ~n_users in
    let take () =
      let evs = List.rev !pending in
      pending := [];
      evs
    in
    let rec go = function
      | [] | Finish :: _ ->
          let r = Engine.Step.finish st in
          on_flush m (take ());
          check_result m ~flush r;
          (List.rev !log, r)
      | Feed page :: rest ->
          advance st m.fed page;
          on_request m page (take ());
          if not (inv m) then Alcotest.failf "invariant after request %d" (m.fed - 1);
          go rest
      | Evict i :: rest ->
          let n = Page.Set.cardinal m.resident in
          if n > 0 then begin
            let victim = List.nth (Page.Set.elements m.resident) (i mod n) in
            Engine.Step.evict st victim;
            if take () <> [] then Alcotest.fail "evict emitted an event";
            evict_victim m victim;
            if not (inv m) then Alcotest.fail "invariant after evict"
          end;
          go rest
      | Evict_uncached i :: rest ->
          let page = Page.make ~user:(i mod n_users) ~id:(100 + i) in
          (match Engine.Step.evict st page with
          | () -> Alcotest.failf "evict of uncached %s" (Page.to_string page)
          | exception Invalid_argument _ -> ());
          go rest
    in
    go cmds

  let policies =
    Ccache_policies.Registry.all
    @ [ Ccache_core.Alg_discrete.policy; Ccache_core.Alg_fast.policy ]

  let gen =
    let open QCheck.Gen in
    let* k = int_range 1 8 in
    let* n_users = int_range 1 3 in
    let* flush = bool in
    let page = map2 (fun u i -> Page.make ~user:u ~id:i) (int_bound (n_users - 1)) (int_bound 11) in
    let cmd =
      frequency
        [
          (40, map (fun p -> Feed p) page);
          (2, map (fun i -> Evict i) small_nat);
          (1, map (fun i -> Evict_uncached i) small_nat);
          (1, return Finish);
        ]
    in
    let* cmds = list_size (int_bound 120) cmd in
    return (k, n_users, flush, cmds)

  let print (k, n_users, flush, cmds) =
    Printf.sprintf "k=%d users=%d flush=%b [%s]" k n_users flush
      (String.concat "; "
         (List.map
            (function
              | Feed p -> Page.to_string p
              | Evict i -> Printf.sprintf "evict#%d" i
              | Evict_uncached i -> Printf.sprintf "evict-uncached#%d" i
              | Finish -> "finish")
            cmds))

  let check (k, n_users, flush, cmds) =
    let costs = Array.init n_users (fun _ -> Cf.monomial ~beta:2.0 ()) in
    (* the commands before the first [Finish] are the ones that run *)
    let rec upto = function [] | Finish :: _ -> [] | c :: rest -> c :: upto rest in
    let cmds = upto cmds in
    let fed = List.filter_map (function Feed p -> Some p | _ -> None) cmds in
    let trace = Trace.of_list ~n_users fed in
    let index = Trace.Index.build trace in
    List.for_all
      (fun policy ->
        let stepped =
          run ~k ~n_users ~flush cmds
            ~init:(fun ~on_event ->
              Engine.Step.init ~flush ~on_event ~index ~k ~costs policy trace)
            ~advance:(fun st pos _ -> Engine.Step.step st pos)
        in
        Policy.needs_future policy
        ||
        let fed_run =
          run ~k ~n_users ~flush cmds
            ~init:(fun ~on_event ->
              Engine.Step.init ~flush ~on_event ~k ~costs policy trace)
            ~advance:(fun st _ page -> Engine.Step.feed st page)
        in
        if fed_run <> stepped then
          Alcotest.failf "%s: feed and step runs differ" (Policy.name policy);
        true)
      policies
end

let step_state_machine_property =
  QCheck.Test.make ~name:"Engine.Step state machine keeps its invariant"
    ~count:150
    (QCheck.make ~print:Ssm.print Ssm.gen)
    Ssm.check

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

(* Per-user sums across windows. *)
let window_totals (w : Windows.t) =
  Array.fold_left (Array.map2 ( + ))
    (Array.make (Array.length w.Windows.misses.(0)) 0)
    w.Windows.misses

let test_windows_partition () =
  (* 5 requests, window 2 -> windows of sizes 2,2,1 *)
  let t = Trace.of_list ~n_users:2 [ p 0 0; p 1 0; p 0 1; p 1 1; p 0 2 ] in
  let costs = linear_costs 2 in
  let r, w = Windows.run_windowed ~window:2 ~k:10 ~costs Ccache_policies.Lru.policy t in
  checki "three windows" 3 w.Windows.n_windows;
  (* all cold misses: per-window per-user counts *)
  checkb "w0" true (w.Windows.misses.(0) = [| 1; 1 |]);
  checkb "w1" true (w.Windows.misses.(1) = [| 1; 1 |]);
  checkb "w2" true (w.Windows.misses.(2) = [| 1; 0 |]);
  checkb "totals = cumulative" true
    (window_totals w = [| 3; 2 |] && window_totals w = r.Engine.misses_per_user)

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
  checkb "flush events not counted" true (window_totals w = [| 2 |])

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_costs () =
  let t = Trace.of_list ~n_users:2 [ p 0 0; p 1 0; p 0 1; p 1 1 ] in
  let costs = [| Cf.monomial ~beta:2.0 (); Cf.linear ~slope:3.0 () |] in
  let r = Engine.run ~k:10 ~costs Ccache_policies.Lru.policy t in
  (* user 0: 2 misses -> 4; user 1: 2 misses -> 6 *)
  checkf "total cost" 10.0 (Metrics.total_cost ~costs r);
  checkf "row cost" 10.0 (Metrics.row ~costs r).Metrics.cost;
  (* eviction accounting: no evictions -> 0 *)
  checkf "eviction accounting" 0.0 (Cf.total costs r.Engine.evictions_per_user)

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
  checkb "geometric" true (Sweep.geometric ~start:4 ~stop:32 ~factor:2.0 = [ 4; 8; 16; 32 ]);
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
          Alcotest.test_case "rejects bad victims" `Quick
            test_engine_rejects_bad_victims;
          Alcotest.test_case "feed stays within the dictionary" `Quick
            test_engine_feed_within_dictionary;
          Alcotest.test_case "early eviction hook" `Quick test_early_eviction_hook;
          Alcotest.test_case "alloc budget per request" `Quick
            test_engine_alloc_per_request;
        ] );
      ( "flush",
        [
          Alcotest.test_case "empties cache (online)" `Quick test_engine_flush_empties_cache;
          Alcotest.test_case "empties cache (offline)" `Quick test_engine_flush_offline_too;
          Alcotest.test_case "stops at an empty cache" `Quick
            test_engine_flush_stops_when_empty;
        ] );
      ("safety", qsuite [ cache_safety_property; step_state_machine_property ]);
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
