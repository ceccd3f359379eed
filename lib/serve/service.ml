(** Replay-form service (see the interface).  The only moving parts
    are [plan] (serial, engine-free) and the per-shard [replay_shard]
    calls; everything after the merge — including
    every service-level obs write — happens on the calling domain in
    shard order, which is what keeps exports width-independent. *)

open Ccache_trace
module Cf = Ccache_cost.Cost_function
module Engine = Ccache_sim.Engine
module Policy = Ccache_sim.Policy
module Domain_pool = Ccache_util.Domain_pool
module Supervisor = Ccache_util.Supervisor

type config = {
  sched : Scheduler.config;
  shard_k : int;
  policy : Policy.t;
  clients : int;
}

let config ?(policy = Ccache_core.Alg_fast.policy) ?(clients = 1) ?overload
    ?client_rate ?(batch = 8) ?(queue_cap = 64) ~router ~shard_k () =
  if shard_k <= 0 then invalid_arg "Service.config: shard_k must be positive";
  if clients <= 0 then invalid_arg "Service.config: clients must be positive";
  if Policy.needs_future policy then
    invalid_arg
      (Printf.sprintf "Service.config: offline policy %s cannot serve"
         (Policy.name policy));
  let sched = Scheduler.config ?overload ?client_rate ~router ~batch ~queue_cap () in
  { sched; shard_k; policy; clients }

type result = {
  r_config : config;
  schedule : Scheduler.t;
  engines : Engine.result array;
  misses_per_user : int array;
  hits : int;
  total_cost : float;
  throughput : float;
}

let requests r = r.schedule.Scheduler.admitted + r.schedule.Scheduler.rejected
let misses r = Array.fold_left ( + ) 0 r.misses_per_user

let plan config trace = Scheduler.build config.sched ~clients:config.clients trace

(* Re-checked here (not just in [config]) because the record type is
   exposed and can be built literally. *)
let validate config ~costs trace =
  if Policy.needs_future config.policy then
    invalid_arg
      (Printf.sprintf "Service.run: offline policy %s cannot serve"
         (Policy.name config.policy));
  if Array.length costs <> Trace.n_users trace then
    invalid_arg
      (Printf.sprintf "Service.run: %d cost functions for %d users"
         (Array.length costs) (Trace.n_users trace))

let merge config ~costs trace schedule engines =
  let n_users = Trace.n_users trace in
  let misses_per_user = Array.make n_users 0 in
  let hits = ref 0 in
  Array.iter
    (fun (r : Engine.result) ->
      hits := !hits + r.Engine.hits;
      Array.iteri
        (fun u m -> misses_per_user.(u) <- misses_per_user.(u) + m)
        r.Engine.misses_per_user)
    engines;
  let throughput =
    if schedule.Scheduler.rounds = 0 then 0.
    else
      float_of_int schedule.Scheduler.admitted
      /. float_of_int schedule.Scheduler.rounds
  in
  {
    r_config = config;
    schedule;
    engines;
    misses_per_user;
    hits = !hits;
    total_cost = Cf.total costs misses_per_user;
    throughput;
  }

(* Service-level obs, recorded post-merge on the calling domain so the
   metrics export is identical at every execution width.  (Per-request
   policy obs still fires on whichever domain ran the shard; counters
   and histograms merge commutatively, so those are width-independent
   too.) *)
let record_obs result =
  let module M = Ccache_obs.Metrics in
  let s = result.schedule in
  M.incr ~by:(requests result) "serve/requests";
  M.incr ~by:s.Scheduler.admitted "serve/admitted";
  M.incr ~by:s.Scheduler.rejected "serve/rejected";
  M.incr ~by:s.Scheduler.stalls "serve/stalls";
  M.incr ~by:s.Scheduler.rounds "serve/rounds";
  Array.iter
    (fun (ss : Scheduler.shard_schedule) ->
      M.incr ~by:(Array.length ss.Scheduler.batches) "serve/batches";
      Array.iter
        (fun w -> M.observe "serve/wait_rounds" (float_of_int w))
        ss.Scheduler.waits;
      M.set_gauge
        (Printf.sprintf "serve/shard%d/max_depth" ss.Scheduler.shard)
        (float_of_int ss.Scheduler.max_depth);
      Ccache_obs.Span.instant ~cat:"serve"
        ~args:
          [
            ("shard", Ccache_obs.Sink.Int ss.Scheduler.shard);
            ("drained", Ccache_obs.Sink.Int (Array.length ss.Scheduler.pages));
            ("rejected", Ccache_obs.Sink.Int ss.Scheduler.rejected);
            ("max_depth", Ccache_obs.Sink.Int ss.Scheduler.max_depth);
          ]
        "serve.shard")
    s.Scheduler.shards;
  Array.iter Engine.record_result_obs result.engines

(* A shard is a plain engine run over the requests it drained, in
   drain order: its batches tile that sequence in order, so replaying
   them batch by batch is replaying the sequence.  The shard's trace
   has its own first-touch ranks: clients interleave, so a shard's
   first-touch order need not be the parent trace's, and the rank-tied
   victims of LFU and Landlord depend on it. *)
let replay_shard config ~costs trace (ss : Scheduler.shard_schedule) =
  Engine.replay ~k:config.shard_k ~costs config.policy
    (Trace.select trace ss.Scheduler.pages)

let run_inner ?pool config ~costs trace =
  validate config ~costs trace;
  let schedule = plan config trace in
  let engines =
    Domain_pool.map_list ?pool
      ~f:(fun ss -> replay_shard config ~costs trace ss)
      (Array.to_list schedule.Scheduler.shards)
    |> Array.of_list
  in
  merge config ~costs trace schedule engines

let run ?pool config ~costs trace =
  if not (Ccache_obs.Control.enabled ()) then run_inner ?pool config ~costs trace
  else
    Ccache_obs.Span.with_ ~cat:"serve"
      ~args:
        [
          ("router", Ccache_obs.Sink.Str (Router.name config.sched.Scheduler.router));
          ("shards", Ccache_obs.Sink.Int (Router.shards config.sched.Scheduler.router));
          ("requests", Ccache_obs.Sink.Int (Trace.length trace));
          ("policy", Ccache_obs.Sink.Str (Policy.name config.policy));
        ]
      "serve.run"
      (fun () ->
        let r = run_inner ?pool config ~costs trace in
        record_obs r;
        r)

(* {2 Supervised execution} *)

let shard_task_id i = Printf.sprintf "shard/%d" i

let engine_codec =
  let ints a =
    String.concat "," (Array.to_list (Array.map string_of_int a))
  in
  let encode (r : Engine.result) =
    Printf.sprintf "%s\t%d\t%d\t%d\t%d\t%s\t%s\t%s" r.Engine.policy r.Engine.k
      r.Engine.trace_length r.Engine.n_users r.Engine.hits
      (ints r.Engine.misses_per_user)
      (ints r.Engine.evictions_per_user)
      (String.concat ","
         (List.map (fun p -> string_of_int (Page.pack p)) r.Engine.final_cache))
  in
  let decode line =
    match String.split_on_char '\t' line with
    | [ policy; k; trace_length; n_users; hits; m; e; c ] -> (
        try
          let ints field =
            if field = "" then [||]
            else
              Array.of_list
                (List.map int_of_string (String.split_on_char ',' field))
          in
          let pages field =
            if field = "" then []
            else
              List.map
                (fun x -> Page.unpack (int_of_string x))
                (String.split_on_char ',' field)
          in
          Some
            {
              Engine.policy;
              k = int_of_string k;
              trace_length = int_of_string trace_length;
              n_users = int_of_string n_users;
              hits = int_of_string hits;
              misses_per_user = ints m;
              evictions_per_user = ints e;
              final_cache = pages c;
            }
        with _ -> None)
    | _ -> None
  in
  { Supervisor.encode; decode }

let fingerprint config ~costs trace =
  let sched = config.sched in
  (* the hash of the packed pages rendered "p0,p1,...,pn," *)
  let trace_hash =
    Ccache_util.Prng.hash_decimals ~n:(Trace.n_pages trace)
      (fun d -> Page.pack (Trace.page_of_dense trace d))
      (Trace.dense trace)
  in
  Printf.sprintf
    "serve-v1 router=%s shards=%d k=%d batch=%d cap=%d overload=%s rate=%d \
     clients=%d policy=%s costs=%s users=%d requests=%d trace=%Lx"
    (Router.name sched.Scheduler.router)
    (Router.shards sched.Scheduler.router)
    config.shard_k sched.Scheduler.batch sched.Scheduler.queue_cap
    (Scheduler.overload_name sched.Scheduler.overload)
    sched.Scheduler.client_rate config.clients
    (Policy.name config.policy)
    (String.concat "," (Array.to_list (Array.map Cf.name costs)))
    (Trace.n_users trace) (Trace.length trace) trace_hash

type supervised = {
  outcome : result option;
  failures : Supervisor.failure list;
  replayed : string list;
}

let run_supervised ?pool ?policy ?fault ?checkpoint ?on_event config ~costs
    trace =
  validate config ~costs trace;
  let schedule = plan config trace in
  let tasks =
    Array.to_list schedule.Scheduler.shards
    |> List.map (fun (ss : Scheduler.shard_schedule) ->
           {
             Supervisor.id = shard_task_id ss.Scheduler.shard;
             run = (fun () -> replay_shard config ~costs trace ss);
           })
  in
  let replayed = ref [] in
  let on_event ev =
    (match ev with
    | Supervisor.Replayed { task } -> replayed := task :: !replayed
    | _ -> ());
    match on_event with Some f -> f ev | None -> ()
  in
  let outcomes =
    Supervisor.run ?pool ?policy ?fault ?checkpoint ~codec:engine_codec
      ~on_event tasks
  in
  let failures = Supervisor.failures outcomes in
  let outcome =
    if failures <> [] then None
    else begin
      let engines = Array.of_list (Supervisor.completed outcomes) in
      let r = merge config ~costs trace schedule engines in
      if Ccache_obs.Control.enabled () then record_obs r;
      Some r
    end
  in
  { outcome; failures; replayed = List.rev !replayed }
