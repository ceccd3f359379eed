(* Tests for ccache_serve: routing, the logical-clock scheduler, the
   differential replay harness (sharded service vs independent engines
   on hash-split sub-traces), supervised execution with kill + resume,
   record/replay byte-identity of the obs exports, and the stepping
   engine's [feed] form. *)

open Ccache_trace
module Serve = Ccache_serve
module Router = Serve.Router
module Scheduler = Serve.Scheduler
module Service = Serve.Service
module Engine = Ccache_sim.Engine
module Cf = Ccache_cost.Cost_function
module U = Ccache_util

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let qsuite = List.map (QCheck_alcotest.to_alcotest ~long:false)

let costs_of n = Array.init n (fun _ -> Cf.monomial ~beta:2.0 ())

let workload ~seed ~tenants ~length =
  Workloads.generate ~seed ~length
    (Workloads.symmetric_zipf ~tenants ~pages_per_tenant:12 ~skew:0.8)

let pages_of trace = Trace.requests trace

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let test_router_basics () =
  let r = Router.by_page ~shards:4 in
  checki "shards" 4 (Router.shards r);
  checkb "name" true (Router.name r = "page");
  let t = workload ~seed:1 ~tenants:3 ~length:500 in
  Array.iter
    (fun p ->
      let s = Router.route r p in
      checkb "in range" true (s >= 0 && s < 4))
    (pages_of t);
  let rt = Router.by_tenant ~shards:2 in
  checkb "tenant name" true (Router.name rt = "tenant");
  Array.iter
    (fun p -> checki "round-robin tenant" (Page.user p mod 2) (Router.route rt p))
    (pages_of (workload ~seed:2 ~tenants:5 ~length:200));
  Alcotest.check_raises "no shards"
    (Invalid_argument "Router.by_tenant: shards must be positive") (fun () ->
      ignore (Router.by_tenant ~shards:0))

let test_split_partitions () =
  let t = workload ~seed:3 ~tenants:3 ~length:800 in
  let r = Router.by_page ~shards:3 in
  let subs = Router.split r t in
  checki "one sub-trace per shard" 3 (Array.length subs);
  let total = Array.fold_left (fun a s -> a + Trace.length s) 0 subs in
  checki "partition preserves count" (Trace.length t) total;
  Array.iteri
    (fun i sub ->
      Array.iter
        (fun p -> checki "page on its shard" i (Router.route r p))
        (pages_of sub))
    subs;
  (* order within a shard is trace order *)
  let seen = Array.make 3 [] in
  Array.iter
    (fun p -> seen.(Router.route r p) <- p :: seen.(Router.route r p))
    (pages_of t);
  Array.iteri
    (fun i sub ->
      checkb "sub-trace in trace order" true
        (Array.to_list (pages_of sub) = List.rev seen.(i)))
    subs

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let sched_config ?(overload = Scheduler.Block) ?(client_rate = 1) ~shards
    ~batch ~queue_cap () =
  Scheduler.config ~overload ~client_rate
    ~router:(Router.by_page ~shards) ~batch ~queue_cap ()

let test_scheduler_conservation () =
  let t = workload ~seed:4 ~tenants:3 ~length:600 in
  List.iter
    (fun (overload, cap) ->
      let cfg = sched_config ~overload ~shards:4 ~batch:2 ~queue_cap:cap () in
      let s = Scheduler.build cfg ~clients:3 t in
      checki "admitted+rejected = requests" (Trace.length t)
        (s.Scheduler.admitted + s.Scheduler.rejected);
      let drained =
        Array.fold_left
          (fun a (ss : Scheduler.shard_schedule) ->
            a + Array.length ss.Scheduler.pages)
          0 s.Scheduler.shards
      in
      checki "drained = admitted" s.Scheduler.admitted drained;
      Array.iter
        (fun (ss : Scheduler.shard_schedule) ->
          let batched = Array.fold_left ( + ) 0 ss.Scheduler.batches in
          checki "batches tile the sequence" (Array.length ss.Scheduler.pages)
            batched;
          Array.iter
            (fun n -> checkb "batch within bound" true (n >= 1 && n <= 2))
            ss.Scheduler.batches;
          checki "a round per batch"
            (Array.length ss.Scheduler.batches)
            (Array.length ss.Scheduler.batch_rounds);
          Array.iter (fun w -> checkb "wait >= 0" true (w >= 0)) ss.Scheduler.waits;
          checki "waits align with pages"
            (Array.length ss.Scheduler.pages)
            (Array.length ss.Scheduler.waits))
        s.Scheduler.shards;
      match overload with
      | Scheduler.Block -> checki "block drops nothing" 0 s.Scheduler.rejected
      | Scheduler.Reject -> checki "reject never stalls" 0 s.Scheduler.stalls)
    [ (Scheduler.Block, 1); (Scheduler.Block, 4); (Scheduler.Reject, 1) ]

let test_scheduler_deterministic_batches () =
  (* 1 shard, cap 2, batch 2, one client: admit 1 per round, drain
     catches up immediately; the batch log is exactly one singleton
     batch per round. *)
  let pages = Array.init 6 (fun i -> Page.make ~user:0 ~id:i) in
  let t = Trace.of_pages ~n_users:1 pages in
  let cfg = sched_config ~shards:1 ~batch:2 ~queue_cap:2 () in
  let s = Scheduler.build cfg ~clients:1 t in
  let ss = s.Scheduler.shards.(0) in
  checkb "FIFO order preserved" true
    (Array.map (Trace.page_of_dense t) ss.Scheduler.pages = pages);
  checkb "one batch per round" true
    (ss.Scheduler.batches = Array.make 6 1
    && ss.Scheduler.batch_rounds = Array.init 6 Fun.id);
  checki "makespan" 6 s.Scheduler.rounds;
  checki "no queueing beyond depth 1" 1 ss.Scheduler.max_depth

(* Dealt over 4 clients, client c sends pages 5c, ..., 5c + 4. *)
let four_streams =
  Trace.of_pages ~n_users:1
    (Array.init 20 (fun pos ->
         Page.make ~user:0 ~id:((pos mod 4 * 5) + (pos / 4))))

let test_scheduler_backpressure_block () =
  (* 4 clients racing into one shard of cap 1, batch 1: three of the
     four stall every admission round. *)
  let cfg = sched_config ~shards:1 ~batch:1 ~queue_cap:1 () in
  let s = Scheduler.build cfg ~clients:4 four_streams in
  checki "nothing dropped" 0 s.Scheduler.rejected;
  checki "everything served" 20 s.Scheduler.admitted;
  checkb "stalls observed" true (s.Scheduler.stalls > 0);
  checkb "makespan stretched to ~1/round" true (s.Scheduler.rounds >= 20)

let test_scheduler_backpressure_reject () =
  let cfg = sched_config ~overload:Scheduler.Reject ~shards:1 ~batch:1 ~queue_cap:1 () in
  let s = Scheduler.build cfg ~clients:4 four_streams in
  checki "no stalls in reject mode" 0 s.Scheduler.stalls;
  checkb "load shed" true (s.Scheduler.rejected > 0);
  checki "conservation" 20 (s.Scheduler.admitted + s.Scheduler.rejected);
  checki "per-shard rejects add up" s.Scheduler.rejected
    s.Scheduler.shards.(0).Scheduler.rejected

let single_client_order_arb =
  QCheck.make
    ~print:(fun (seed, shards, batch, cap, rate) ->
      Printf.sprintf "seed=%d shards=%d batch=%d cap=%d rate=%d" seed shards
        batch cap rate)
    QCheck.Gen.(
      tup5 (int_bound 1000) (int_range 1 5) (int_range 1 8) (int_range 1 8)
        (int_range 1 4))

let prop_single_client_order =
  QCheck.Test.make ~name:"1 client + Block: shard sequence = Router.split"
    ~count:60 single_client_order_arb (fun (seed, shards, batch, cap, rate) ->
      let t = workload ~seed ~tenants:3 ~length:200 in
      let router = Router.by_page ~shards in
      let cfg =
        Scheduler.config ~client_rate:rate ~router ~batch ~queue_cap:cap ()
      in
      let s = Scheduler.build cfg ~clients:1 t in
      let subs = Router.split router t in
      Array.for_all
        (fun (ss : Scheduler.shard_schedule) ->
          Array.map (Trace.page_of_dense t) ss.Scheduler.pages
          = pages_of subs.(ss.Scheduler.shard))
        s.Scheduler.shards)

(* The reference scheduler: the list/[Queue] implementation the flat
   array [Scheduler.build] replaced, kept verbatim in behaviour as the
   oracle for every field of the plan.  It deals the trace into page
   streams and queues pages; a drained page becomes its dense id only
   in the result. *)
module Reference = struct
  let clients_of_trace ~clients trace =
    let streams = Array.make clients [] in
    for pos = Trace.length trace - 1 downto 0 do
      let c = pos mod clients in
      streams.(c) <- Trace.request trace pos :: streams.(c)
    done;
    Array.map Array.of_list streams

  type shard_state = {
    queue : (Page.t * int) Queue.t;
    mutable drained : Page.t list;
    mutable drained_waits : int list;
    mutable batch_log : (int * int) list;
    mutable s_rejected : int;
    mutable s_max_depth : int;
    mutable s_depth_sum : int;
  }

  let build (config : Scheduler.config) ~clients trace =
    let clients = clients_of_trace ~clients trace in
    let dense_of page = U.Interner.find (Trace.interner trace) (Page.pack page) in
    let n_shards = Router.shards config.Scheduler.router in
    let shards =
      Array.init n_shards (fun _ ->
          {
            queue = Queue.create ();
            drained = [];
            drained_waits = [];
            batch_log = [];
            s_rejected = 0;
            s_max_depth = 0;
            s_depth_sum = 0;
          })
    in
    let n_clients = Array.length clients in
    let cursors = Array.make n_clients 0 in
    let admitted = ref 0 and rejected = ref 0 and stalls = ref 0 in
    let remaining_clients () =
      let any = ref false in
      Array.iteri
        (fun c cur -> if cur < Array.length clients.(c) then any := true)
        cursors;
      !any
    in
    let queued () =
      Array.exists (fun s -> not (Queue.is_empty s.queue)) shards
    in
    let round = ref 0 in
    while remaining_clients () || queued () do
      for c = 0 to n_clients - 1 do
        let stream = clients.(c) in
        let budget = ref config.Scheduler.client_rate in
        let stalled = ref false in
        while
          (not !stalled) && !budget > 0 && cursors.(c) < Array.length stream
        do
          let page = stream.(cursors.(c)) in
          let s = shards.(Router.route config.Scheduler.router page) in
          if Queue.length s.queue < config.Scheduler.queue_cap then begin
            Queue.push (page, !round) s.queue;
            incr admitted;
            if Queue.length s.queue > s.s_max_depth then
              s.s_max_depth <- Queue.length s.queue;
            cursors.(c) <- cursors.(c) + 1;
            decr budget
          end
          else
            match config.Scheduler.overload with
            | Scheduler.Block ->
                stalled := true;
                incr stalls
            | Scheduler.Reject ->
                s.s_rejected <- s.s_rejected + 1;
                incr rejected;
                cursors.(c) <- cursors.(c) + 1;
                decr budget
        done
      done;
      Array.iter
        (fun s ->
          let n = min config.Scheduler.batch (Queue.length s.queue) in
          if n > 0 then begin
            for _ = 1 to n do
              let page, submitted = Queue.pop s.queue in
              s.drained <- page :: s.drained;
              s.drained_waits <- (!round - submitted) :: s.drained_waits
            done;
            s.batch_log <- (!round, n) :: s.batch_log
          end;
          s.s_depth_sum <- s.s_depth_sum + Queue.length s.queue)
        shards;
      incr round
    done;
    {
      Scheduler.config;
      rounds = !round;
      shards =
        Array.mapi
          (fun i s ->
            {
              Scheduler.shard = i;
              pages = Array.of_list (List.rev_map dense_of s.drained);
              batches = Array.of_list (List.rev_map snd s.batch_log);
              batch_rounds = Array.of_list (List.rev_map fst s.batch_log);
              waits = Array.of_list (List.rev s.drained_waits);
              rejected = s.s_rejected;
              max_depth = s.s_max_depth;
              depth_sum = s.s_depth_sum;
            })
          shards;
      admitted = !admitted;
      rejected = !rejected;
      stalls = !stalls;
    }
end

let oracle_n_users = 4

(* Config knobs, a trace of 0-40 requests and 1-6 clients (so some
   runs have more clients than requests): page or tenant routing, both
   overload modes, queue_cap anywhere in [1, max_int] and client_rate
   up to max_int. *)
let oracle_gen =
  let open QCheck.Gen in
  let page =
    map2
      (fun user id -> Page.make ~user ~id)
      (int_bound (oracle_n_users - 1))
      (int_bound 20)
  in
  let router =
    oneof
      [
        map (fun shards -> Router.by_page ~shards) (int_range 1 5);
        map (fun shards -> Router.by_tenant ~shards) (int_range 1 4);
      ]
  in
  let queue_cap =
    frequency
      [ (6, int_range 1 8); (1, int_range 9 max_int); (1, return max_int) ]
  in
  let client_rate = frequency [ (6, int_range 1 8); (1, return max_int) ] in
  let config =
    map3
      (fun (router, overload) (batch, queue_cap) client_rate ->
        Scheduler.config ~overload ~client_rate ~router ~batch ~queue_cap ())
      (pair router (oneofl [ Scheduler.Block; Scheduler.Reject ]))
      (pair (int_range 1 8) queue_cap)
      client_rate
  in
  triple config (int_range 1 6)
    (map
       (Trace.of_list ~n_users:oracle_n_users)
       (list_size (int_bound 40) page))

let print_oracle_case ((cfg : Scheduler.config), clients, trace) =
  Printf.sprintf
    "router=%s shards=%d overload=%s batch=%d cap=%d rate=%d clients=%d \
     trace=[%s]"
    (Router.name cfg.Scheduler.router)
    (Router.shards cfg.Scheduler.router)
    (Scheduler.overload_name cfg.Scheduler.overload)
    cfg.Scheduler.batch cfg.Scheduler.queue_cap cfg.Scheduler.client_rate
    clients
    (String.concat ","
       (Array.to_list (Array.map Page.to_string (pages_of trace))))

let prop_build_matches_reference =
  QCheck.Test.make ~name:"build = reference scheduler, every field" ~count:500
    (QCheck.make ~print:print_oracle_case oracle_gen)
    (fun (cfg, clients, trace) ->
      Scheduler.build cfg ~clients trace = Reference.build cfg ~clients trace)

(* ------------------------------------------------------------------ *)
(* Differential replay: sharded service vs independent engines         *)
(* ------------------------------------------------------------------ *)

let diff_arb =
  QCheck.make
    ~print:(fun (seed, tenants, shards, batch, cap) ->
      Printf.sprintf "seed=%d tenants=%d shards=%d batch=%d cap=%d" seed
        tenants shards batch cap)
    QCheck.Gen.(
      tup5 (int_bound 1000) (int_range 1 4) (int_range 1 5) (int_range 1 8)
        (int_range 1 8))

(* The service with one client in Block mode is observationally a
   router in front of N independent engines: same per-shard engine
   results as Engine.run on the Router.split sub-traces, same merged
   accounting — whatever the batch size or queue bound, and at every
   pool width. *)
let check_differential ?pool (seed, tenants, shards, batch, cap) =
  let t = workload ~seed ~tenants ~length:250 in
  let costs = costs_of tenants in
  let router = Router.by_page ~shards in
  let config =
    Service.config ~clients:1 ~batch ~queue_cap:cap ~router ~shard_k:8 ()
  in
  let r = Service.run ?pool config ~costs t in
  let subs = Router.split router t in
  let expected =
    Array.map
      (fun sub -> Engine.run ~k:8 ~costs Ccache_core.Alg_fast.policy sub)
      subs
  in
  let merged = Array.make tenants 0 in
  Array.iter
    (fun (e : Engine.result) ->
      Array.iteri (fun u m -> merged.(u) <- merged.(u) + m) e.Engine.misses_per_user)
    expected;
  r.Service.engines = expected
  && r.Service.misses_per_user = merged
  && r.Service.hits
     = Array.fold_left (fun a (e : Engine.result) -> a + e.Engine.hits) 0 expected
  && r.Service.schedule.Scheduler.rejected = 0

let prop_differential_serial =
  QCheck.Test.make ~name:"sharded service = engines on split sub-traces"
    ~count:40 diff_arb (fun args -> check_differential args)

let prop_differential_pooled =
  QCheck.Test.make ~name:"differential holds on a pool (jobs 8)" ~count:10
    diff_arb (fun args ->
      check_differential ~pool:(U.Domain_pool.create ~size:8 ()) args)

let test_multi_client_differential () =
  (* several clients, ample queue/batch (>= clients, rate 1): no
     stalls, admission re-interleaves the dealt streams back into
     trace order, so the differential still holds exactly. *)
  let t = workload ~seed:7 ~tenants:4 ~length:600 in
  let costs = costs_of 4 in
  List.iter
    (fun clients ->
      let router = Router.by_page ~shards:3 in
      let config =
        Service.config ~clients ~batch:8 ~queue_cap:8 ~router ~shard_k:8 ()
      in
      let r = Service.run config ~costs t in
      let expected =
        Array.map
          (fun sub -> Engine.run ~k:8 ~costs Ccache_core.Alg_fast.policy sub)
          (Router.split router t)
      in
      checkb
        (Printf.sprintf "differential at %d clients" clients)
        true
        (r.Service.engines = expected))
    [ 1; 2; 3; 4 ]

let test_jobs_width_identity () =
  let t = workload ~seed:8 ~tenants:3 ~length:1000 in
  let costs = costs_of 3 in
  let config =
    Service.config ~clients:2 ~batch:4 ~queue_cap:4
      ~router:(Router.by_page ~shards:4) ~shard_k:8 ()
  in
  let serial = Service.run config ~costs t in
  let pool = U.Domain_pool.create ~size:8 () in
  let pooled = Service.run ~pool config ~costs t in
  checkb "engines identical" true (serial.Service.engines = pooled.Service.engines);
  checkb "merged misses identical" true
    (serial.Service.misses_per_user = pooled.Service.misses_per_user);
  Alcotest.(check (float 0.0))
    "total cost identical" serial.Service.total_cost pooled.Service.total_cost

let test_reject_sheds_load () =
  (* Reject mode serves a subset: per-user misses can only shrink
     against the unthrottled run, and accounting stays conserved. *)
  let t = workload ~seed:9 ~tenants:3 ~length:800 in
  let costs = costs_of 3 in
  let router = Router.by_page ~shards:2 in
  let throttled =
    Service.run
      (Service.config ~clients:4 ~overload:Scheduler.Reject ~batch:1
         ~queue_cap:1 ~router ~shard_k:8 ())
      ~costs t
  in
  let s = throttled.Service.schedule in
  checkb "some load shed" true (s.Scheduler.rejected > 0);
  checki "conservation" (Trace.length t)
    (s.Scheduler.admitted + s.Scheduler.rejected);
  let served =
    Array.fold_left
      (fun a (e : Engine.result) -> a + e.Engine.trace_length)
      0 throttled.Service.engines
  in
  checki "engines saw exactly the admitted requests" s.Scheduler.admitted served;
  checki "hits+misses = admitted" s.Scheduler.admitted
    (throttled.Service.hits
    + Array.fold_left ( + ) 0 throttled.Service.misses_per_user)

let test_tenant_routing_matches_multipool () =
  (* By_tenant round-robin with shard_k-page shards is the multipool
     engine's Static_round_robin partition: same per-user misses. *)
  let t = workload ~seed:10 ~tenants:4 ~length:900 in
  let costs = costs_of 4 in
  List.iter
    (fun shards ->
      let r =
        Service.run
          (Service.config ~policy:Ccache_core.Alg_discrete.policy
             ~router:(Router.by_tenant ~shards)
             ~shard_k:8 ())
          ~costs t
      in
      let mp =
        Ccache_multipool.Multi_engine.run ~pools:shards ~pool_size:8
          ~strategy:Ccache_multipool.Multi_engine.Static_round_robin ~costs t
      in
      checkb
        (Printf.sprintf "matches multipool at %d shards" shards)
        true
        (r.Service.misses_per_user
        = mp.Ccache_multipool.Multi_engine.misses_per_user))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Supervised execution: codec, fingerprint, kill + resume             *)
(* ------------------------------------------------------------------ *)

let codec_arb =
  QCheck.make
    ~print:(fun (seed, tenants, k) ->
      Printf.sprintf "seed=%d tenants=%d k=%d" seed tenants k)
    QCheck.Gen.(tup3 (int_bound 1000) (int_range 1 4) (int_range 1 32))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"engine result codec roundtrips" ~count:60 codec_arb
    (fun (seed, tenants, k) ->
      let t = workload ~seed ~tenants ~length:120 in
      let costs = costs_of tenants in
      let r = Engine.run ~k ~costs Ccache_core.Alg_fast.policy t in
      Service.engine_codec.U.Supervisor.decode
        (Service.engine_codec.U.Supervisor.encode r)
      = Some r)

let test_codec_rejects_garbage () =
  checkb "garbage" true
    (Service.engine_codec.U.Supervisor.decode "nonsense" = None);
  checkb "wrong arity" true
    (Service.engine_codec.U.Supervisor.decode "a\t1\t2" = None);
  checkb "bad int" true
    (Service.engine_codec.U.Supervisor.decode "p\tx\t0\t1\t0\t0\t0\t" = None)

let test_fingerprint_sensitivity () =
  let t = workload ~seed:11 ~tenants:2 ~length:100 in
  let t' = workload ~seed:12 ~tenants:2 ~length:100 in
  let costs = costs_of 2 in
  let config batch =
    Service.config ~batch ~router:(Router.by_page ~shards:2) ~shard_k:4 ()
  in
  let fp = Service.fingerprint (config 8) ~costs t in
  checkb "stable" true (fp = Service.fingerprint (config 8) ~costs t);
  checkb "batch changes it" true (fp <> Service.fingerprint (config 4) ~costs t);
  checkb "trace changes it" true (fp <> Service.fingerprint (config 8) ~costs t');
  checkb "single line" true (not (String.contains fp '\n'))

(* Checkpoints written by earlier builds carry this string: it must not
   move.  The literals are what the list-and-Buffer implementation
   printed; the second trace holds page 0 and the largest packed page. *)
let test_fingerprint_golden () =
  let config =
    Service.config ~batch:8 ~router:(Router.by_page ~shards:2) ~shard_k:4 ()
  in
  let costs = costs_of 2 in
  Alcotest.(check string)
    "zipf trace"
    "serve-v1 router=page shards=2 k=4 batch=8 cap=64 overload=block rate=1 \
     clients=1 policy=alg-discrete-fast costs=x^2,x^2 users=2 requests=100 \
     trace=d3fcd617e3415153"
    (Service.fingerprint config ~costs
       (workload ~seed:11 ~tenants:2 ~length:100));
  let top = Page.make ~user:((1 lsl 24) - 1) ~id:((1 lsl 38) - 1) in
  let extremes =
    Trace.of_pages ~n_users:(1 lsl 24)
      [| Page.make ~user:0 ~id:0; top; Page.make ~user:3 ~id:77; top |]
  in
  Alcotest.(check string)
    "page 0 and the largest packed page"
    "serve-v1 router=page shards=2 k=4 batch=8 cap=64 overload=block rate=1 \
     clients=1 policy=alg-discrete-fast costs=x^2,x^2 users=16777216 \
     requests=4 trace=8a162ac45e2bf25a"
    (Service.fingerprint config ~costs extremes)

let joined_decimals ints =
  String.concat "" (List.map (fun v -> string_of_int v ^ ",") ints)

(* Ids drawn with repeats from [0, n) (the empty sequence included):
   the hash equals the joined renderings of their values.  With at
   least 4 elements per id, [value] is called once per distinct id in
   order of first appearance, and otherwise once per element, in order
   (prng.mli); sequences of 0 to 80 ids over n of 1 to 32 fall on both
   sides, and n may exceed the ids drawn. *)
let prop_hash_decimals =
  (* 10^k - 1, 10^k and 10^k + 1 of either sign: every digit count, odd
     and even, where the renderer's digit pairs split *)
  let around_pow10 =
    QCheck.Gen.(
      map3
        (fun k d neg ->
          let v = int_of_float (10. ** float_of_int k) + d in
          if neg then -v else v)
        (int_bound 18) (int_range (-1) 1) bool)
  in
  let value =
    QCheck.Gen.(
      oneof
        [
          int;
          small_signed_int;
          around_pow10;
          oneofl [ 0; 1; -1; max_int; min_int ];
        ])
  in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 24) value >>= fun values ->
      let values = Array.of_list values in
      let m = Array.length values in
      int_bound 8 >>= fun extra ->
      frequency
        [ (1, return []); (6, list_size (int_bound 80) (int_bound (m - 1))) ]
      >|= fun ids -> (values, m + extra, Array.of_list ids))
  in
  let print (values, n, ids) =
    let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
    Printf.sprintf "values [|%s|] n %d ids [|%s|]" (ints values) n (ints ids)
  in
  QCheck.Test.make ~name:"hash_decimals = hash_string of the joined digits"
    ~count:300 (QCheck.make ~print gen) (fun (values, n, ids) ->
      let value d = values.(d mod Array.length values) in
      let calls = ref [] in
      let h =
        U.Prng.hash_decimals ~n
          (fun d ->
            calls := d :: !calls;
            value d)
          (Helpers.ids_of_array ids)
      in
      let renders =
        if Array.length ids / 4 >= n then
          List.fold_left
            (fun seen d -> if List.mem d seen then seen else d :: seen)
            [] (Array.to_list ids)
        else List.rev (Array.to_list ids)
      in
      h
      = U.Prng.hash_string
          (joined_decimals (Array.to_list (Array.map value ids)))
      && !calls = renders)

(* An id outside [0, n) is refused wherever it stands, and so is a
   negative n.  [value] is total, so only the range checks can raise.
   The ids are u32: past n, the bad ones are the largest value a signed
   32-bit read keeps positive, the smallest it would read as negative,
   and 2^32 - 1 (what -1 stores as). *)
let test_hash_decimals_rejects_ids () =
  let n = 3 in
  let value d = (d * 1_000_003) - 5 in
  let hash ~n ids = U.Prng.hash_decimals ~n value (Helpers.ids_of_array ids) in
  List.iter
    (fun bad ->
      List.iter
        (fun ids ->
          match hash ~n ids with
          | _ -> Alcotest.failf "id %d accepted" bad
          | exception Invalid_argument _ -> ())
        [ [| bad |]; [| 0; 1; bad |]; [| 2; bad; 2 |] ])
    [ n; (1 lsl 31) - 1; 1 lsl 31; (1 lsl 32) - 1 ];
  List.iter
    (fun (name, n, ids) ->
      checkb name true
        (match hash ~n ids with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ ("n = 0 refuses id 0", 0, [| 0 |]); ("negative n", -1, [||]) ];
  checkb "n = 0 over no ids is the empty hash" true
    (hash ~n:0 [||] = U.Prng.hash_string "")

(* The fingerprint's trace field, over pages anywhere in the packed
   range, is the hash of the packed pages' decimal rendering.  Pages
   drawn from the whole range almost never repeat, so half the traces
   draw from a small pool at both ends of it, where most requests hit
   a page already rendered. *)
let prop_fingerprint_trace_hash =
  let top_user = (1 lsl 24) - 1 and top_id = (1 lsl 38) - 1 in
  let page =
    QCheck.Gen.(
      oneof
        [
          map2
            (fun user id -> Page.make ~user ~id)
            (int_bound top_user) (int_bound top_id);
          oneofl
            [ Page.make ~user:0 ~id:0; Page.make ~user:top_user ~id:top_id ];
        ])
  in
  let pooled =
    QCheck.Gen.oneofl
      [
        Page.make ~user:0 ~id:0;
        Page.make ~user:0 ~id:1;
        Page.make ~user:1 ~id:0;
        Page.make ~user:top_user ~id:top_id;
        Page.make ~user:top_user ~id:(top_id - 1);
        Page.make ~user:(top_user - 1) ~id:top_id;
      ]
  in
  let print pages =
    String.concat "," (List.map (fun p -> string_of_int (Page.pack p)) pages)
  in
  QCheck.Test.make ~name:"fingerprint trace hash = hash_string of packed pages"
    ~count:200
    (QCheck.make ~print
       QCheck.Gen.(
         oneof [ list_size (int_bound 40) page; list_size (int_bound 40) pooled ]))
    (fun pages ->
      let t = Trace.of_list ~n_users:(1 lsl 24) pages in
      let fp =
        Service.fingerprint
          (Service.config ~router:(Router.by_page ~shards:3) ~shard_k:4 ())
          ~costs:(costs_of 1) t
      in
      let want =
        Printf.sprintf " trace=%Lx"
          (U.Prng.hash_string (joined_decimals (List.map Page.pack pages)))
      in
      String.ends_with ~suffix:want fp)

(* The plan of the benchmark's serve configuration (4 page-routed
   shards, 2 clients at rate 8, batch 4, queue cap 32) stays within a
   fixed allocation budget per request, also with an unbounded queue.
   The fingerprint allocates a slot per distinct page and nothing per
   request: over the same requests twice (the same dictionary) it
   allocates what it does over them once.  The trace has about 7
   requests per page, so both hashes keep a slot per page. *)
let test_plan_allocation_budget () =
  let t =
    Workloads.generate ~seed:3 ~length:100_000
      (Workloads.symmetric_zipf ~tenants:4 ~pages_per_tenant:4096 ~skew:0.9)
  in
  let allocated f = snd (Helpers.allocation f) in
  let config queue_cap =
    Service.config ~clients:2 ~client_rate:8 ~batch:4 ~queue_cap
      ~router:(Router.by_page ~shards:4) ~shard_k:2048 ()
  in
  List.iter
    (fun queue_cap ->
      let plan =
        allocated (fun () -> Service.plan (config queue_cap) t)
        /. float_of_int (Trace.length t)
      in
      checkb
        (Printf.sprintf "plan, queue_cap %d: %.1f B/request <= 40" queue_cap
           plan)
        true (plan <= 40.))
    [ 32; max_int ];
  let fingerprint t =
    allocated (fun () -> Service.fingerprint (config 32) ~costs:(costs_of 4) t)
  in
  let twice = Trace.append t t in
  checki "same dictionary" (Trace.n_pages t) (Trace.n_pages twice);
  let once = fingerprint t in
  let added =
    Float.abs (fingerprint twice -. once) /. float_of_int (Trace.length t)
  in
  checkb
    (Printf.sprintf "fingerprint: %.3f B per added request < 0.1" added)
    true (added < 0.1);
  let budget = (32. *. float_of_int (Trace.n_pages t)) +. 1024. in
  checkb
    (Printf.sprintf "fingerprint: %.0f B <= 32 B x %d pages + 1 KB" once
       (Trace.n_pages t))
    true (once <= budget)

let test_kill_quarantines_and_resume_completes () =
  let t = workload ~seed:13 ~tenants:3 ~length:700 in
  let costs = costs_of 3 in
  let config =
    Service.config ~clients:2 ~batch:4 ~queue_cap:4
      ~router:(Router.by_page ~shards:4) ~shard_k:8 ()
  in
  let baseline = Service.run config ~costs t in
  let path = Filename.temp_file "serve_ck" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fingerprint = Service.fingerprint config ~costs t in
      let ck = U.Checkpoint.create ~path ~fingerprint in
      let killed =
        Service.run_supervised
          ~fault:(U.Fault.kill U.Fault.none [ Service.shard_task_id 1 ])
          ~checkpoint:ck config ~costs t
      in
      checkb "no merged result under quarantine" true
        (killed.Service.outcome = None);
      (match killed.Service.failures with
      | [ f ] -> checkb "shard/1 quarantined" true (f.U.Supervisor.task = "shard/1")
      | fs -> Alcotest.failf "expected 1 failure, got %d" (List.length fs));
      (* resume: the three completed shards replay from the snapshot,
         only shard/1 is recomputed, and the merged result is
         byte-identical to the uninterrupted run *)
      let ck2 =
        match U.Checkpoint.load_or_create ~path ~fingerprint with
        | Ok ck -> ck
        | Error e -> Alcotest.failf "reload failed: %s" e
      in
      let resumed = Service.run_supervised ~checkpoint:ck2 config ~costs t in
      checkb "resume completes" true (resumed.Service.failures = []);
      checkb "replayed the completed shards" true
        (List.sort compare resumed.Service.replayed
        = [ "shard/0"; "shard/2"; "shard/3" ]);
      match resumed.Service.outcome with
      | None -> Alcotest.fail "resume produced no result"
      | Some r ->
          checkb "engines identical to uninterrupted run" true
            (r.Service.engines = baseline.Service.engines);
          Alcotest.(check (float 0.0))
            "cost identical" baseline.Service.total_cost r.Service.total_cost)

let test_fingerprint_guards_resume () =
  let t = workload ~seed:14 ~tenants:2 ~length:100 in
  let costs = costs_of 2 in
  let config batch =
    Service.config ~batch ~router:(Router.by_page ~shards:2) ~shard_k:4 ()
  in
  let path = Filename.temp_file "serve_fp" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let ck =
        U.Checkpoint.create ~path
          ~fingerprint:(Service.fingerprint (config 8) ~costs t)
      in
      let _ = Service.run_supervised ~checkpoint:ck (config 8) ~costs t in
      checkb "other-config resume refused" true
        (match
           U.Checkpoint.load_or_create ~path
             ~fingerprint:(Service.fingerprint (config 4) ~costs t)
         with
        | Error _ -> true
        | Ok _ -> false))

(* ------------------------------------------------------------------ *)
(* Record/replay byte-identity of the obs exports                      *)
(* ------------------------------------------------------------------ *)

module Obs = Ccache_obs

(* Each call is a fresh recording epoch: its own counting clock and a
   metrics reset, so two identical runs must export identical bytes. *)
let serve_with_obs () =
  Obs.Control.with_enabled ~clock:(Obs.Clock.counting ()) @@ fun () ->
  Obs.Metrics.reset ();
  let t = workload ~seed:15 ~tenants:3 ~length:800 in
  let costs = costs_of 3 in
  let config =
    Service.config ~clients:2 ~batch:4 ~queue_cap:4
      ~router:(Router.by_page ~shards:3) ~shard_k:8 ()
  in
  let r = Service.run config ~costs t in
  let snap = Obs.Metrics.snapshot () in
  ( r,
    snap,
    Obs.Metrics_export.to_json snap,
    Obs.Trace_export.to_json ~origin:0.0 (Obs.Span.collect ()) )

let test_record_replay_byte_identity () =
  let r1, snap, metrics1, spans1 = serve_with_obs () in
  let r2, _, metrics2, spans2 = serve_with_obs () in
  checkb "results identical" true (r1.Service.engines = r2.Service.engines);
  Alcotest.(check string) "metrics export byte-identical" metrics1 metrics2;
  Alcotest.(check string) "span export byte-identical" spans1 spans2;
  checkb "serve counters present" true
    (List.mem_assoc "serve/requests" snap.Obs.Metrics.counters
    && List.mem_assoc "serve/rounds" snap.Obs.Metrics.counters)

let test_obs_off_equals_on () =
  (* recording must not change the computation *)
  let t = workload ~seed:16 ~tenants:3 ~length:600 in
  let costs = costs_of 3 in
  let config =
    Service.config ~clients:3 ~batch:2 ~queue_cap:2
      ~router:(Router.by_page ~shards:2) ~shard_k:8 ()
  in
  let off = Service.run config ~costs t in
  let on =
    Obs.Control.with_enabled ~clock:(Obs.Clock.counting ()) (fun () ->
        Obs.Metrics.reset ();
        Service.run config ~costs t)
  in
  checkb "identical with obs on" true (off.Service.engines = on.Service.engines);
  Alcotest.(check (float 0.0))
    "identical cost" off.Service.total_cost on.Service.total_cost

(* Pool self-telemetry (names under "pool/") measures the execution
   schedule, not the computation, and is excluded by contract — same
   convention as the sweep obs tests. *)
let drop_pool_names (s : Obs.Metrics.snapshot) =
  let keep (name, _) =
    not (String.length name >= 5 && String.sub name 0 5 = "pool/")
  in
  {
    Obs.Metrics.counters = List.filter keep s.Obs.Metrics.counters;
    gauges = List.filter keep s.Obs.Metrics.gauges;
    hists = List.filter keep s.Obs.Metrics.hists;
  }

let test_metrics_width_independent () =
  Obs.Control.with_enabled ~clock:(Obs.Clock.counting ()) @@ fun () ->
  let snap pool =
    Obs.Metrics.reset ();
    let t = workload ~seed:17 ~tenants:3 ~length:800 in
    let costs = costs_of 3 in
    let config =
      Service.config ~clients:2 ~batch:4 ~queue_cap:4
        ~router:(Router.by_page ~shards:4) ~shard_k:8 ()
    in
    let _ = Service.run ?pool config ~costs t in
    Obs.Metrics_export.to_json (drop_pool_names (Obs.Metrics.snapshot ()))
  in
  let serial = snap None in
  let pooled = snap (Some (U.Domain_pool.create ~size:8 ())) in
  Alcotest.(check string) "metrics export identical at jobs 8" serial pooled

(* ------------------------------------------------------------------ *)
(* Engine.Step.feed                                                    *)
(* ------------------------------------------------------------------ *)

let test_feed_equals_run () =
  let t = workload ~seed:18 ~tenants:3 ~length:500 in
  let costs = costs_of 3 in
  List.iter
    (fun policy ->
      let st = Engine.Step.init ~k:12 ~costs policy t in
      Array.iter (fun p -> Engine.Step.feed st p) (pages_of t);
      let fed = Engine.Step.finish st in
      let run = Engine.run ~k:12 ~costs policy t in
      checkb "feed = run" true (fed = run);
      checki "dynamic trace_length = requests fed" (Trace.length t)
        fed.Engine.trace_length;
      (* [Step.evict] between requests: the page leaves the cache as one
         more eviction of its owner, and evicting it again raises *)
      let st = Engine.Step.init ~k:12 ~costs policy t in
      Array.iter (fun p -> Engine.Step.feed st p) (pages_of t);
      let victim = List.hd run.Engine.final_cache in
      Engine.Step.evict st victim;
      Alcotest.check_raises "evict uncached"
        (Invalid_argument
           ("Engine.Step.evict: " ^ Page.to_string victim ^ " is not cached"))
        (fun () -> Engine.Step.evict st victim);
      let evicted = Engine.Step.finish st in
      checkb "victim left the cache" false
        (List.mem victim evicted.Engine.final_cache);
      let u = Page.user victim in
      checki "one more eviction of its owner"
        (run.Engine.evictions_per_user.(u) + 1)
        evicted.Engine.evictions_per_user.(u))
    [ Ccache_core.Alg_fast.policy; Ccache_policies.Lru.policy ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ccache_serve"
    [
      ( "router",
        [
          Alcotest.test_case "routing basics" `Quick test_router_basics;
          Alcotest.test_case "split partitions in order" `Quick test_split_partitions;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "conservation" `Quick test_scheduler_conservation;
          Alcotest.test_case "deterministic batches" `Quick
            test_scheduler_deterministic_batches;
          Alcotest.test_case "block backpressure" `Quick
            test_scheduler_backpressure_block;
          Alcotest.test_case "reject backpressure" `Quick
            test_scheduler_backpressure_reject;
        ]
        @ qsuite
            [
              prop_single_client_order;
              prop_build_matches_reference;
            ] );
      ( "differential",
        [
          Alcotest.test_case "multi-client differential" `Quick
            test_multi_client_differential;
          Alcotest.test_case "jobs width identity" `Quick test_jobs_width_identity;
          Alcotest.test_case "reject sheds load" `Quick test_reject_sheds_load;
          Alcotest.test_case "tenant routing = multipool" `Quick
            test_tenant_routing_matches_multipool;
        ]
        @ qsuite [ prop_differential_serial; prop_differential_pooled ] );
      ( "supervised",
        [
          Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_fingerprint_sensitivity;
          Alcotest.test_case "kill quarantines, resume completes" `Quick
            test_kill_quarantines_and_resume_completes;
          Alcotest.test_case "fingerprint guards resume" `Quick
            test_fingerprint_guards_resume;
          Alcotest.test_case "fingerprint golden" `Quick test_fingerprint_golden;
          Alcotest.test_case "hash_decimals rejects ids outside [0, n)" `Quick
            test_hash_decimals_rejects_ids;
          Alcotest.test_case "plan allocation budget" `Quick
            test_plan_allocation_budget;
        ]
        @ qsuite
            [
              prop_codec_roundtrip;
              prop_hash_decimals;
              prop_fingerprint_trace_hash;
            ] );
      ( "replay",
        [
          Alcotest.test_case "record/replay byte identity" `Quick
            test_record_replay_byte_identity;
          Alcotest.test_case "obs off = obs on" `Quick test_obs_off_equals_on;
          Alcotest.test_case "metrics width-independent" `Quick
            test_metrics_width_independent;
          Alcotest.test_case "Step.feed = Engine.run" `Quick test_feed_equals_run;
        ] );
    ]
