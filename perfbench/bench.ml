(** Request-path benchmark program.  [run.py] in this directory builds
    and drives it; README.md describes the workloads and metrics.

    Subcommands:
    - [prepare --seed S --length L --out F]: generate the zipf input,
      write it as a .ctrace and print, as one JSON line, reference
      digests computed on the in-memory trace through the one-shot
      APIs ([Engine.run], [Service.run]).
    - [probe --workload W [--input F]]: cold-start set-up.  Runs the
      workload's set-up, prints the monotonic clock (ns) at the point
      where the first request would be replayed, and exits.
    - [measure --workload W [--input F] --seconds N]: untraced passes
      until N seconds have elapsed; one JSON line of samples.
    - [ledger --input F --obs-input F --seed S --length L]: one
      untraced and one traced pass of every workload.  Prints each
      workload's per-layer self-time table, then one JSON line of
      per-layer metrics.

    Every layer is measured from outside, around calls into its public
    functions; policy handlers are timed by re-wrapping the policy
    through [Policy.make] under its own name. *)

module Cf = Ccache_cost.Cost_function
module W = Ccache_trace.Workloads
module Tb = Ccache_trace.Trace_binary
module Trace = Ccache_trace.Trace
module Page = Ccache_trace.Page
module Engine = Ccache_sim.Engine
module Policy = Ccache_sim.Policy
module Sv = Ccache_serve
module A = Ccache_analysis
module U = Ccache_util
module Obs = Ccache_obs

(* ---- clock: CLOCK_MONOTONIC in ns, unboxed and allocation-free ---- *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (now_ns ())
let secs ns = float_of_int ns *. 1e-9
let ms ns = ns *. 1e-6

(* ---- JSON output ---- *)

type json =
  | I of int
  | F of float
  | S of string
  | L of json list
  | O of (string * json) list

(* Floats keep all their digits (%.17g); Obs_json.num's %g would not. *)
let rec emit b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | S s -> Buffer.add_string b (Obs.Obs_json.str s)
  | L l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit b x)
        l;
      Buffer.add_char b ']'
  | O l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          emit b (S k);
          Buffer.add_char b ':';
          emit b v)
        l;
      Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  emit b j;
  print_string (Buffer.contents b);
  print_newline ()

(* ---- workload configuration (README.md, "Workloads") ---- *)

let spec () = W.symmetric_zipf ~tenants:4 ~pages_per_tenant:4096 ~skew:0.9
let roster = [ "alg-discrete-fast"; "landlord-static"; "lru"; "arc" ]
let obs_policy = "alg-discrete-fast"
let replay_k = 64
let serve_shards = 4
let serve_shard_k = 8192 / serve_shards

(* the CLI's "--cost x2" *)
let make_costs n = Array.init n (fun _ -> Cf.monomial ~beta:2.0 ())

let policy_of name =
  match
    List.find_opt
      (fun p -> Policy.name p = name)
      (Ccache_core.Alg_fast.policy :: Ccache_policies.Registry.all)
  with
  | Some p -> p
  | None -> failwith ("unknown policy " ^ name)

(* ccache_cli serve --route page --shards 4 -k 8192 --clients 2 --rate 8
   --batch 4 --queue-cap 32 --overload block *)
let serve_config policy =
  Sv.Service.config ~policy ~clients:2 ~overload:Sv.Scheduler.Block
    ~client_rate:8 ~batch:4 ~queue_cap:32
    ~router:(Sv.Router.by_page ~shards:serve_shards)
    ~shard_k:serve_shard_k ()

let load input = Tb.to_trace (Tb.open_file input)
let md5 s = Digest.to_hex (Digest.string s)

let render_result ~costs r =
  Format.asprintf "%a" (Ccache_sim.Metrics.pp_result ~costs) r

(* The summary `ccache_cli serve` prints. *)
let serve_report (r : Sv.Service.result) =
  let s = r.Sv.Service.schedule in
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "serve: %d shards (route=page), k=%d/shard, batch=4, queue-cap=32, 2 \
     client(s) x rate 8, overload=block\n"
    serve_shards serve_shard_k;
  Printf.bprintf b
    "requests %d  admitted %d  rejected %d  stalls %d  rounds %d  \
     throughput %.2f req/round\n"
    (Sv.Service.requests r) s.Sv.Scheduler.admitted s.Sv.Scheduler.rejected
    s.Sv.Scheduler.stalls s.Sv.Scheduler.rounds r.Sv.Service.throughput;
  Printf.bprintf b "hits %d  misses %d  total cost %.2f\n" r.Sv.Service.hits
    (Sv.Service.misses r) r.Sv.Service.total_cost;
  let module Tbl = U.Ascii_table in
  let tbl =
    Tbl.create ~title:"per-shard"
      [ "shard"; "requests"; "batches"; "maxdepth"; "meanwait"; "rejected";
        "hits"; "misses" ]
  in
  Array.iteri
    (fun i (ss : Sv.Scheduler.shard_schedule) ->
      let er = r.Sv.Service.engines.(i) in
      let drained = Array.length ss.Sv.Scheduler.pages in
      let waits = Array.fold_left ( + ) 0 ss.Sv.Scheduler.waits in
      Tbl.add_row tbl
        [
          Tbl.cell_int i;
          Tbl.cell_int drained;
          Tbl.cell_int (Array.length ss.Sv.Scheduler.batches);
          Tbl.cell_int ss.Sv.Scheduler.max_depth;
          Tbl.cell_float ~digits:2
            (if drained = 0 then 0. else float waits /. float drained);
          Tbl.cell_int ss.Sv.Scheduler.rejected;
          Tbl.cell_int er.Engine.hits;
          Tbl.cell_int (Engine.misses er);
        ])
    s.Sv.Scheduler.shards;
  Buffer.add_string b (Tbl.to_string tbl);
  Buffer.contents b

(* ---- output checks: conservation identities ---- *)

type op = {
  op : string;  (** "<workload>/<operation>" *)
  digest : string;
  hits : int;
  reqs : int;
  problems : string list;
}

let op_json o =
  O
    [
      ("op", S o.op);
      ("digest", S o.digest);
      ("hits", I o.hits);
      ("requests", I o.reqs);
      ("problems", L (List.map (fun s -> S s) o.problems));
    ]

let user_requests trace =
  let c = Array.make (Trace.n_users trace) 0 in
  Array.iter
    (fun p -> c.(Page.user p) <- c.(Page.user p) + 1)
    (Trace.requests trace);
  c

(* hits + misses = requests; per user, misses - evictions = pages
   left cached and misses <= requests. *)
let replay_problems ~k ~user_reqs (r : Engine.result) =
  let n = Array.fold_left ( + ) 0 user_reqs in
  let ps = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> ps := s :: !ps) fmt in
  if r.Engine.trace_length <> n then
    fail "replayed %d of %d requests" r.Engine.trace_length n;
  if r.Engine.hits + Engine.misses r <> n then
    fail "hits %d + misses %d <> requests %d" r.Engine.hits (Engine.misses r) n;
  if List.length r.Engine.final_cache > k then
    fail "%d pages cached with k=%d" (List.length r.Engine.final_cache) k;
  let cached = Array.make (Array.length user_reqs) 0 in
  List.iter
    (fun p -> cached.(Page.user p) <- cached.(Page.user p) + 1)
    r.Engine.final_cache;
  Array.iteri
    (fun u req ->
      let m = r.Engine.misses_per_user.(u)
      and e = r.Engine.evictions_per_user.(u) in
      if m > req then fail "user %d: %d misses > %d requests" u m req;
      if m - e <> cached.(u) then
        fail "user %d: misses %d - evictions %d <> %d cached" u m e cached.(u))
    user_reqs;
  List.rev !ps

(* admitted + rejected = requests, hits + misses = admitted, and the
   merge agrees with the per-shard engines. *)
let serve_problems ~user_reqs (sup : Sv.Service.supervised) =
  let quarantined =
    List.map
      (fun (f : U.Supervisor.failure) ->
        Printf.sprintf "quarantined %s: %s" f.U.Supervisor.task
          f.U.Supervisor.error)
      sup.Sv.Service.failures
  in
  match sup.Sv.Service.outcome with
  | None -> if quarantined = [] then [ "no outcome" ] else quarantined
  | Some r ->
      let n = Array.fold_left ( + ) 0 user_reqs in
      let s = r.Sv.Service.schedule in
      let ps = ref (List.rev quarantined) in
      let fail fmt = Printf.ksprintf (fun s -> ps := s :: !ps) fmt in
      if s.Sv.Scheduler.admitted + s.Sv.Scheduler.rejected <> n then
        fail "admitted %d + rejected %d <> requests %d" s.Sv.Scheduler.admitted
          s.Sv.Scheduler.rejected n;
      if r.Sv.Service.hits + Sv.Service.misses r <> s.Sv.Scheduler.admitted
      then
        fail "hits %d + misses %d <> admitted %d" r.Sv.Service.hits
          (Sv.Service.misses r) s.Sv.Scheduler.admitted;
      let engines = r.Sv.Service.engines in
      let hits = Array.fold_left (fun a e -> a + e.Engine.hits) 0 engines in
      if hits <> r.Sv.Service.hits then
        fail "shard hits %d <> merged hits %d" hits r.Sv.Service.hits;
      Array.iteri
        (fun u m ->
          let sum =
            Array.fold_left
              (fun a e -> a + e.Engine.misses_per_user.(u))
              0 engines
          in
          if sum <> m then fail "user %d: shard misses %d <> merged %d" u sum m)
        r.Sv.Service.misses_per_user;
      Array.iter
        (fun (e : Engine.result) ->
          if e.Engine.hits + Engine.misses e <> e.Engine.trace_length then
            fail "a shard's hits + misses <> its requests")
        engines;
      List.rev !ps

(* ---- untraced passes: the CLI's public-call sequence ---- *)

(* A pass is split into named phases that together cover its wall time,
   first public call .. last output or export.  Request phases replay
   requests (or, for the suite, run sections). *)
type phase = { name : string; ns : int; request : bool }

type pass = {
  phases : phase list;
  alloc : float;  (** Gc.allocated_bytes over the pass *)
  requests : int;
  ops : op list;
}

let phase ?(request = false) name ns = { name; ns; request }
let sum_ns f p = List.fold_left (fun a ph -> if f ph then a + ph.ns else a) 0 p.phases
let wall_ns = sum_ns (fun _ -> true)

let pass_json p =
  O
    [
      ("request_s", F (secs (sum_ns (fun ph -> ph.request) p)));
      ("wall_s", F (secs (wall_ns p)));
      ( "phases",
        L
          (List.map
             (fun ph ->
               O
                 [
                   ("name", S ph.name);
                   ("s", F (secs ph.ns));
                   ("request", I (Bool.to_int ph.request));
                 ])
             p.phases) );
      ("alloc_bytes", F p.alloc);
      ("requests", I p.requests);
    ]

(* Cold-start probes stop at the first request and report the time. *)
let probe_point () =
  Printf.printf "%d\n%!" (now ());
  exit 0

(* `ccache_cli run --trace F --policy P -k 64 --cost x2` per roster
   policy, sharing one materialised trace; with [~obs] recording is on
   and spans and metrics are serialised as `--trace-out`/
   `--metrics-out` would (in memory: no disk in the number). *)
let replay_pass ?(probe = false) ~obs ~input ~workload names =
  let policies = List.map policy_of names in
  if obs then begin
    Obs.Metrics.reset ();
    Obs.Control.enable ()
  end;
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let trace = load input in
  let costs = make_costs (Trace.n_users trace) in
  if probe then begin
    ignore (Engine.Step.init ~k:replay_k ~costs (List.hd policies) trace);
    probe_point ()
  end;
  let t1 = now () in
  let last = ref t1 in
  let runs =
    List.map
      (fun p ->
        let r =
          match Engine.run ~k:replay_k ~costs p trace with
          | r -> Ok (r, render_result ~costs r)
          | exception e -> Error (Printexc.to_string e)
        in
        let e = now () in
        let ns = e - !last in
        last := e;
        (Policy.name p, r, ns))
      policies
  in
  let t2 = !last in
  let exported =
    if obs then
      let spans = Obs.Span.collect () in
      let snap = Obs.Metrics.snapshot () in
      String.length (Obs.Trace_export.to_json spans)
      + String.length (Obs.Metrics_export.to_json snap)
    else 0
  in
  let t3 = now () in
  let alloc = Gc.allocated_bytes () -. a0 in
  if obs then Obs.Control.disable ();
  ignore (Sys.opaque_identity exported);
  let user_reqs = user_requests trace in
  let ops =
    List.map
      (fun (name, r, _) ->
        let op = workload ^ "/" ^ name in
        match r with
        | Ok (r, out) ->
            {
              op;
              digest = md5 out;
              hits = r.Engine.hits;
              reqs = r.Engine.trace_length;
              problems = replay_problems ~k:replay_k ~user_reqs r;
            }
        | Error e ->
            { op; digest = ""; hits = 0; reqs = 0; problems = [ "exception: " ^ e ] })
      runs
  in
  {
    phases =
      (phase "load" (t1 - t0)
      :: List.map (fun (name, _, ns) -> phase ~request:true ("run/" ^ name) ns) runs)
      @ [ phase "export" (t3 - t2) ];
    alloc;
    requests = List.fold_left (fun a o -> a + o.reqs) 0 ops;
    ops;
  }

(* `ccache_cli serve ... --jobs 1`: config, fingerprint, supervised run,
   report. *)
let serve_pass ?(probe = false) ~input () =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let trace = load input in
  let costs = make_costs (Trace.n_users trace) in
  let config = serve_config (policy_of "alg-discrete-fast") in
  let fingerprint = Sv.Service.fingerprint config ~costs trace in
  if probe then probe_point ();
  let t1 = now () in
  let sup = Sv.Service.run_supervised config ~costs trace in
  let t2 = now () in
  let out =
    match sup.Sv.Service.outcome with Some r -> serve_report r | None -> ""
  in
  let t3 = now () in
  let alloc = Gc.allocated_bytes () -. a0 in
  ignore (Sys.opaque_identity fingerprint);
  let admitted, hits =
    match sup.Sv.Service.outcome with
    | Some r -> (r.Sv.Service.schedule.Sv.Scheduler.admitted, r.Sv.Service.hits)
    | None -> (0, 0)
  in
  let op =
    {
      op = "serve_hot/serve";
      digest = md5 out;
      hits;
      reqs = admitted;
      problems = serve_problems ~user_reqs:(user_requests trace) sup;
    }
  in
  {
    phases =
      [
        phase "load, config, fingerprint" (t1 - t0);
        phase ~request:true "run_supervised" (t2 - t1);
        phase "report" (t3 - t2);
      ];
    alloc;
    requests = admitted;
    ops = [ op ];
  }

(* `experiments --quick --jobs 1`.  Each spec is re-wrapped to time
   [Experiment.run] and keep its output (for the per-section digests);
   the outputs are returned with the pass. *)
let suite_pass ?(probe = false) () =
  let outputs = ref [] and sections = ref [] in
  let specs =
    List.map
      (fun (e : A.Experiment.t) ->
        {
          e with
          A.Experiment.run =
            (fun size ->
              if probe then probe_point ();
              let s = now () in
              let o = e.A.Experiment.run size in
              let d = now () - s in
              sections := phase ~request:true ("suite." ^ e.A.Experiment.id) d :: !sections;
              outputs := (e.A.Experiment.id, o) :: !outputs;
              o);
        })
      A.Suite.all
  in
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let fmt = A.Report.Text and size = A.Experiment.Quick in
  let fingerprint = A.Report.fingerprint ~fmt ~size specs in
  let t1 = now () in
  let res =
    A.Report.run_suite_supervised ~fmt ~policy:U.Supervisor.default_policy
      ~fault:U.Fault.none ~on_event:ignore ~size specs
  in
  let t2 = now () in
  let alloc = Gc.allocated_bytes () -. a0 in
  ignore (Sys.opaque_identity fingerprint);
  let quarantined =
    List.map
      (fun (f : U.Supervisor.failure) -> (f.U.Supervisor.task, f.U.Supervisor.error))
      res.A.Report.failures
  in
  let rendered =
    List.map
      (fun id ->
        (id, Option.map (A.Report.render_output fmt) (List.assoc_opt id !outputs)))
      A.Suite.ids
  in
  let whole = String.concat "" (List.filter_map snd rendered) in
  let ops =
    List.map
      (fun (id, r) ->
        let problems =
          match (r, List.assoc_opt id quarantined) with
          | _, Some err -> [ "quarantined: " ^ err ]
          | None, None -> [ "section missing from the report" ]
          | Some _, None ->
              if whole <> res.A.Report.report then
                [ "report differs from its rendered sections" ]
              else []
        in
        {
          op = "suite_quick/" ^ id;
          digest = Option.fold ~none:"" ~some:md5 r;
          hits = 0;
          reqs = 0;
          problems;
        })
      rendered
  in
  let sections = List.rev !sections in
  let in_sections = List.fold_left (fun a ph -> a + ph.ns) 0 sections in
  ( {
      phases =
        (phase "fingerprint" (t1 - t0) :: sections)
        @ [ phase "supervisor, rendering" (t2 - t1 - in_sections) ];
      alloc;
      requests = List.length (List.filter (fun (_, r) -> r <> None) rendered);
      ops;
    },
    !outputs )

let untraced_pass ?probe workload ~input =
  match workload with
  | "replay_evict" -> replay_pass ?probe ~obs:false ~input ~workload roster
  | "replay_obs" -> replay_pass ?probe ~obs:true ~input ~workload [ obs_policy ]
  | "serve_hot" -> serve_pass ?probe ~input ()
  | "suite_quick" -> fst (suite_pass ?probe ())
  | w -> failwith ("unknown workload " ^ w)

(* ---- the handler ledger ---- *)

type acc = { mutable calls : int; mutable ns : int; mutable words : int }

type pacc = {
  hit : acc;
  victim : acc;
  evict : acc;
  insert : acc;
  early : acc;
  mutable starts : (int * float) list;
      (** per instantiation (one per engine or shard), newest first:
          clock and Gc.allocated_bytes *)
  mutable last : int;  (** clock at the latest handler return *)
}

let acc () = { calls = 0; ns = 0; words = 0 }

let pacc () =
  { hit = acc (); victim = acc (); evict = acc (); insert = acc ();
    early = acc (); starts = []; last = 0 }

let accs pa = [ pa.hit; pa.victim; pa.evict; pa.insert; pa.early ]

(* Same policy, same name, every handler timed with the monotonic clock
   and charged its minor-heap words; no allocation of its own. *)
let wrap pa p =
  Policy.make ~needs_future:(Policy.needs_future p) ~name:(Policy.name p)
    (fun cfg ->
      pa.starts <- (now (), Gc.allocated_bytes ()) :: pa.starts;
      let h = Policy.instantiate p cfg in
      let charge a w0 t0 t1 =
        a.ns <- a.ns + (t1 - t0);
        a.words <- a.words + int_of_float (Gc.minor_words () -. w0);
        a.calls <- a.calls + 1;
        pa.last <- t1
        [@@inline]
      in
      {
        Policy.on_hit =
          (fun ~pos p ->
            let w0 = Gc.minor_words () in
            let t0 = now () in
            h.Policy.on_hit ~pos p;
            let t1 = now () in
            charge pa.hit w0 t0 t1);
        wants_evict =
          (fun ~pos ~incoming ->
            let w0 = Gc.minor_words () in
            let t0 = now () in
            let b = h.Policy.wants_evict ~pos ~incoming in
            let t1 = now () in
            charge pa.early w0 t0 t1;
            b);
        choose_victim =
          (fun ~pos ~incoming ->
            let w0 = Gc.minor_words () in
            let t0 = now () in
            let v = h.Policy.choose_victim ~pos ~incoming in
            let t1 = now () in
            charge pa.victim w0 t0 t1;
            v);
        on_insert =
          (fun ~pos p ->
            let w0 = Gc.minor_words () in
            let t0 = now () in
            h.Policy.on_insert ~pos p;
            let t1 = now () in
            charge pa.insert w0 t0 t1);
        on_evict =
          (fun ~pos p ->
            let w0 = Gc.minor_words () in
            let t0 = now () in
            h.Policy.on_evict ~pos p;
            let t1 = now () in
            charge pa.evict w0 t0 t1);
      })

(* The measured cost of an empty timed call: [inside] is what the
   clock window of an empty handler reads (subtracted from each
   handler's time), [extra] what wrapping adds to a call (charged to
   the "tracing" row), [words] the wrapper's own allocation. *)
type cal = { inside : float; extra : float; cwords : float }

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let calibrate () =
  let cfg = Policy.Config.make ~k:1 ~costs:[| Cf.linear ~slope:1.0 () |] () in
  let empty =
    Policy.make ~name:"empty" (fun _ ->
        {
          Policy.on_hit = Policy.no_hit;
          wants_evict = Policy.never_evict_early;
          choose_victim = (fun ~pos:_ ~incoming -> incoming);
          on_insert = Policy.no_hit;
          on_evict = Policy.no_evict;
        })
  in
  let page = Page.make ~user:0 ~id:1 in
  let n = 200_000 in
  let loop (h : Policy.handlers) =
    let t0 = now () in
    for pos = 1 to n do
      h.Policy.on_hit ~pos (Sys.opaque_identity page)
    done;
    now () - t0
  in
  let sample () =
    let pa = pacc () in
    let plain = Policy.instantiate empty cfg in
    let wrapped = Policy.instantiate (wrap pa empty) cfg in
    let tp = loop plain in
    let tw = loop wrapped in
    ( float pa.hit.ns /. float n,
      float (tw - tp) /. float n,
      float pa.hit.words /. float n )
  in
  let s = List.init 9 (fun _ -> sample ()) in
  {
    inside = median (List.map (fun (a, _, _) -> a) s);
    extra = Float.max 0. (median (List.map (fun (_, b, _) -> b) s));
    cwords = median (List.map (fun (_, _, c) -> c) s);
  }

let net cal a = float a.ns -. (float a.calls *. cal.inside)
let pa_net cal pa = List.fold_left (fun s a -> s +. net cal a) 0. (accs pa)
let pa_calls pa = List.fold_left (fun s a -> s + a.calls) 0 (accs pa)

let pa_bytes cal pa =
  8.
  *. List.fold_left
       (fun s a -> s +. float a.words -. (float a.calls *. cal.cwords))
       0. (accs pa)

let per_call cal a = if a.calls = 0 then 0. else net cal a /. float a.calls
let tracing cal pa = float (pa_calls pa) *. cal.extra

(* ---- per-layer metrics and self-time rows ---- *)

let metrics = ref []
let put name unit v = metrics := (name, unit, v) :: !metrics

type traced = { wall : float; rows : (string * float) list; tops : op list }

let print_table ~workload ~untraced t =
  let accounted = List.fold_left (fun s (_, ns) -> s +. ns) 0. t.rows in
  Printf.printf
    "\n%s: traced wall %.3f s, untraced wall %.3f s, tracing overhead %+.3f s\n"
    workload (t.wall *. 1e-9) (untraced *. 1e-9) ((t.wall -. untraced) *. 1e-9);
  Printf.printf "  %-52s %10s %7s\n" "layer (self time)" "ms" "share";
  let line name ns =
    Printf.printf "  %-52s %10.3f %6.1f%%\n" name (ms ns) (100. *. ns /. t.wall)
  in
  List.iter (fun (name, ns) -> line name ns) t.rows;
  line "(unattributed residual)" (t.wall -. accounted);
  put ("overhead." ^ workload ^ "_s") "s" ((t.wall -. untraced) *. 1e-9);
  put ("unattributed." ^ workload ^ "_ms") "ms" (ms (t.wall -. accounted))

let traced_replay cal ~input =
  let rows = ref [] in
  let row name ns = rows := (name, ns) :: !rows in
  let t0 = now () in
  let a0 = Gc.allocated_bytes () in
  let h = Tb.open_file input in
  let t1 = now () in
  let trace = Tb.to_trace h in
  let t2 = now () in
  let a1 = Gc.allocated_bytes () in
  let costs = make_costs (Trace.n_users trace) in
  let t3 = now () in
  let n = Trace.length trace in
  row "trace.open (Trace_binary.open_file)" (float (t1 - t0));
  row "trace.materialize (Trace_binary.to_trace)" (float (t2 - t1));
  row "cost vectors" (float (t3 - t2));
  put "trace.open_ms" "ms" (ms (float (t1 - t0)));
  put "trace.materialize_ns_per_req" "ns/req" (float (t2 - t1) /. float n);
  put "trace.bytes_per_req" "B/req" ((a1 -. a0) /. float n);
  let init = ref 0 and self = ref 0. and fin = ref 0 and out_ns = ref 0 in
  let trac = ref 0. and ebytes = ref 0. in
  let results =
    List.map
      (fun name ->
        let pa = pacc () in
        let p = wrap pa (policy_of name) in
        let s0 = now () in
        let st = Engine.Step.init ~k:replay_k ~costs p trace in
        let s1 = now () in
        let b0 = Gc.minor_words () in
        for pos = 0 to n - 1 do
          Engine.Step.step st pos
        done;
        let b1 = Gc.minor_words () in
        let s2 = now () in
        let r = Engine.Step.finish st in
        let s3 = now () in
        let out = render_result ~costs r in
        let s4 = now () in
        let hnet = pa_net cal pa in
        init := !init + (s1 - s0);
        self := !self +. float (s2 - s1) -. hnet -. tracing cal pa;
        fin := !fin + (s3 - s2);
        out_ns := !out_ns + (s4 - s3);
        trac := !trac +. tracing cal pa;
        ebytes := !ebytes +. (8. *. (b1 -. b0)) -. pa_bytes cal pa;
        row ("policy " ^ name ^ " (handlers)") hnet;
        let m = "policy." ^ name in
        put (m ^ ".hit_ns") "ns" (per_call cal pa.hit);
        put (m ^ ".victim_ns") "ns" (per_call cal pa.victim);
        put (m ^ ".evict_ns") "ns" (per_call cal pa.evict);
        put (m ^ ".insert_ns") "ns" (per_call cal pa.insert);
        put (m ^ ".bytes_per_req") "B/req" (pa_bytes cal pa /. float n);
        put (m ^ ".calls") "count" (float (pa_calls pa));
        let e = "engine." ^ name in
        put (e ^ ".hits") "count" (float r.Engine.hits);
        put (e ^ ".misses") "count" (float (Engine.misses r));
        put (e ^ ".evictions") "count" (float (Engine.evictions r));
        (r, out))
      roster
  in
  let t4 = now () in
  let total = float (n * List.length roster) in
  row "engine.init (Step.init)" (float !init);
  row "engine.step self (step loop minus handlers)" !self;
  row "engine.finish (Step.finish)" (float !fin);
  row "tracing (calibrated handler wrapping)" !trac;
  row "output (Metrics.pp_result)" (float !out_ns);
  put "engine.init_us" "us" (float !init /. float (List.length roster) *. 1e-3);
  put "engine.self_ns_per_req" "ns/req" (!self /. total);
  put "engine.bytes_per_req" "B/req" (!ebytes /. total);
  let user_reqs = user_requests trace in
  let tops =
    List.map
      (fun (r, out) ->
        {
          op = "replay_evict/" ^ r.Engine.policy;
          digest = md5 out;
          hits = r.Engine.hits;
          reqs = r.Engine.trace_length;
          problems = replay_problems ~k:replay_k ~user_reqs r;
        })
      results
  in
  { wall = float (t4 - t0); rows = List.rev !rows; tops }

let traced_serve cal ~input =
  let rows = ref [] in
  let row name ns = rows := (name, ns) :: !rows in
  let t0 = now () in
  let trace = Tb.to_trace (Tb.open_file input) in
  let t1 = now () in
  let costs = make_costs (Trace.n_users trace) in
  let pa = pacc () in
  let config = serve_config (wrap pa (policy_of "alg-discrete-fast")) in
  let t2 = now () in
  let fingerprint = Sv.Service.fingerprint config ~costs trace in
  let t3 = now () in
  let b0 = Gc.allocated_bytes () in
  let sup = Sv.Service.run_supervised config ~costs trace in
  let t4 = now () in
  let out =
    match sup.Sv.Service.outcome with Some r -> serve_report r | None -> ""
  in
  let t5 = now () in
  ignore (Sys.opaque_identity fingerprint);
  let sched =
    match sup.Sv.Service.outcome with
    | Some r -> r.Sv.Service.schedule
    | None -> Sv.Service.plan config trace
  in
  (* With one domain the shards run one after another inside
     run_supervised, each starting with its policy's instantiation.  So
     the wrapper's marks split the call: plan (and validation) until the
     first shard starts, shard i until shard i+1 starts, the last shard
     until its last handler returns, and the merge after that. *)
  let starts = List.rev pa.starts in
  let s0, b1 = match starts with s :: _ -> s | [] -> (t4, b0) in
  let ends = List.map fst (List.tl starts) @ [ pa.last ] in
  let shard_max =
    List.fold_left2 (fun m (s, _) e -> max m (e - s)) 0 starts ends |> float
  in
  let admitted = sched.Sv.Scheduler.admitted in
  let hnet = pa_net cal pa in
  let plan = float (s0 - t3) and shards_total = float (pa.last - s0) in
  let eself = shards_total -. hnet -. tracing cal pa in
  let merge = float (t4 - pa.last) in
  row "trace.open + materialize" (float (t1 - t0));
  row "cost vectors + Service.config" (float (t2 - t1));
  row "serve.fingerprint (Service.fingerprint)" (float (t3 - t2));
  row "serve.plan (run_supervised until the first shard)" plan;
  row "serve.shard engine self (shards minus handlers)" eself;
  row "serve.shard policy alg-discrete-fast (handlers)" hnet;
  row "serve.merge (run_supervised after the last shard)" merge;
  row "tracing (calibrated handler wrapping)" (tracing cal pa);
  row "output (serve report)" (float (t5 - t4));
  let shards = sched.Sv.Scheduler.shards in
  let sum f = Array.fold_left (fun a ss -> a + f ss) 0 shards in
  let drained = sum (fun ss -> Array.length ss.Sv.Scheduler.pages) in
  put "serve.fingerprint_ms" "ms" (ms (float (t3 - t2)));
  put "serve.plan_ms" "ms" (ms plan);
  put "serve.plan_bytes_per_req" "B/req" ((b1 -. b0) /. float admitted);
  (* both shard timings include the handler wrapping *)
  put "serve.shard_ms" "ms" (ms shards_total);
  put "serve.shard_max_ms" "ms" (ms shard_max);
  put "serve.merge_ms" "ms" (ms merge);
  put "serve.rounds" "count" (float sched.Sv.Scheduler.rounds);
  put "serve.stalls" "count" (float sched.Sv.Scheduler.stalls);
  put "serve.max_depth" "count"
    (float (Array.fold_left (fun m ss -> max m ss.Sv.Scheduler.max_depth) 0 shards));
  put "serve.mean_wait_rounds" "rounds"
    (float (sum (fun ss -> Array.fold_left ( + ) 0 ss.Sv.Scheduler.waits))
    /. float (max 1 drained));
  put "serve.batches" "count" (float (sum (fun ss -> Array.length ss.Sv.Scheduler.batches)));
  put "serve.engine_self_ns_per_req" "ns/req" (eself /. float admitted);
  put "serve.hit_ns" "ns" (per_call cal pa.hit);
  let hits =
    match sup.Sv.Service.outcome with Some r -> r.Sv.Service.hits | None -> 0
  in
  put "serve.hits" "count" (float hits);
  let top =
    {
      op = "serve_hot/serve";
      digest = md5 out;
      hits;
      reqs = admitted;
      problems = serve_problems ~user_reqs:(user_requests trace) sup;
    }
  in
  { wall = float (t5 - t0); rows = List.rev !rows; tops = [ top ] }

let traced_suite () =
  let p, outputs = suite_pass () in
  (* Rendering runs inside the supervised tasks; it is re-timed on the
     kept outputs, outside the wall, to split it from the supervisor. *)
  let r0 = now () in
  List.iter
    (fun (_, o) ->
      ignore (Sys.opaque_identity (A.Report.render_output A.Report.Text o)))
    outputs;
  let render = float (now () - r0) in
  let ns name =
    List.fold_left (fun a ph -> if ph.name = name then a + ph.ns else a) 0 p.phases
    |> float
  in
  let rows =
    List.map
      (fun id ->
        let d = ns ("suite." ^ id) in
        put ("suite." ^ id ^ "_ms") "ms" (ms d);
        ("suite." ^ id ^ " (Experiment.run)", d))
      A.Suite.ids
  in
  put "suite.residual_ms" "ms" (ms (ns "supervisor, rendering"));
  {
    wall = float (wall_ns p);
    rows =
      (("suite fingerprint (Report.fingerprint)", ns "fingerprint") :: rows)
      @ [ ("suite rendering (Report.render_output, re-timed)", render) ];
    tops = p.ops;
  }

let traced_obs cal ~input =
  (* obs-off baseline for the per-eviction obs cost, outside the wall *)
  let trace0 = load input in
  let costs0 = make_costs (Trace.n_users trace0) in
  let pa_off = pacc () in
  ignore (Engine.run ~k:replay_k ~costs:costs0 (wrap pa_off (policy_of obs_policy)) trace0);
  Obs.Metrics.reset ();
  Obs.Control.enable ();
  let pa = pacc () in
  let t0 = now () in
  let h = Tb.open_file input in
  let t1 = now () in
  let trace = Tb.to_trace h in
  let t2 = now () in
  let costs = make_costs (Trace.n_users trace) in
  let p = wrap pa (policy_of obs_policy) in
  let t3 = now () in
  let r = Engine.run ~k:replay_k ~costs p trace in
  let t4 = now () in
  let out = render_result ~costs r in
  let t5 = now () in
  let spans = Obs.Span.collect () in
  let snap = Obs.Metrics.snapshot () in
  let t6 = now () in
  let exported =
    String.length (Obs.Trace_export.to_json spans)
    + String.length (Obs.Metrics_export.to_json snap)
  in
  let t7 = now () in
  Obs.Control.disable ();
  ignore (Sys.opaque_identity exported);
  let hnet = pa_net cal pa in
  let evictions = float (max 1 (Engine.evictions r)) in
  let rows =
    [
      ("trace.open (Trace_binary.open_file)", float (t1 - t0));
      ("trace.materialize (Trace_binary.to_trace)", float (t2 - t1));
      ("cost vectors", float (t3 - t2));
      ("engine.run self (obs on, minus handlers)",
        float (t4 - t3) -. hnet -. tracing cal pa);
      ("policy " ^ obs_policy ^ " (handlers, obs on)", hnet);
      ("tracing (calibrated handler wrapping)", tracing cal pa);
      ("output (Metrics.pp_result)", float (t5 - t4));
      ("obs.collect (Span.collect + Metrics.snapshot)", float (t6 - t5));
      ("obs.export (Trace_export + Metrics_export to_json)", float (t7 - t6));
    ]
  in
  put "obs.evict_ns" "ns" ((hnet -. pa_net cal pa_off) /. evictions);
  put "obs.bytes_per_eviction" "B"
    ((pa_bytes cal pa -. pa_bytes cal pa_off) /. evictions);
  put "obs.spans" "count" (float (List.length spans));
  put "obs.metric_keys" "count"
    (float
       (List.length snap.Obs.Metrics.counters
       + List.length snap.Obs.Metrics.gauges
       + List.length snap.Obs.Metrics.hists));
  put "obs.collect_ms" "ms" (ms (float (t6 - t5)));
  put "obs.export_ms" "ms" (ms (float (t7 - t6)));
  let top =
    {
      op = "replay_obs/" ^ obs_policy;
      digest = md5 out;
      hits = r.Engine.hits;
      reqs = r.Engine.trace_length;
      problems = replay_problems ~k:replay_k ~user_reqs:(user_requests trace) r;
    }
  in
  Obs.Metrics.reset ();
  { wall = float (t7 - t0); rows; tops = [ top ] }

let rate_ns () =
  let cf = Cf.monomial ~beta:2.0 () in
  let n = 200_000 in
  let sample () =
    let acc = ref 0. in
    let t0 = now () in
    for m = 1 to n do
      acc := !acc +. Cf.rate cf Cf.Discrete m
    done;
    let t1 = now () in
    ignore (Sys.opaque_identity !acc);
    float (t1 - t0) /. float n
  in
  median (List.init 9 (fun _ -> sample ()))

let ledger ~input ~obs_input ~seed ~length =
  let cal = calibrate () in
  put "ledger.wrap_ns" "ns" cal.extra;
  Printf.printf
    "handler timing: empty timed call %.1f ns inside the window, %.1f ns \
     added per wrapped call, %.2f words\n"
    cal.inside cal.extra cal.cwords;
  let ops = ref [] in
  let workload name untraced traced =
    Gc.compact ();
    let u = untraced () in
    Gc.compact ();
    let t = traced () in
    ops := !ops @ u.ops @ t.tops;
    print_table ~workload:name ~untraced:(float (wall_ns u)) t
  in
  workload "replay_evict"
    (fun () -> untraced_pass "replay_evict" ~input)
    (fun () -> traced_replay cal ~input);
  put "cost.rate_ns" "ns" (rate_ns ());
  workload "serve_hot"
    (fun () -> untraced_pass "serve_hot" ~input)
    (fun () -> traced_serve cal ~input);
  workload "suite_quick"
    (fun () -> untraced_pass "suite_quick" ~input)
    traced_suite;
  workload "replay_obs"
    (fun () -> untraced_pass "replay_obs" ~input:obs_input)
    (fun () -> traced_obs cal ~input:obs_input);
  let t0 = now () in
  let tr = W.generate ~seed ~length (spec ()) in
  let t1 = now () in
  put "gen.ns_per_req" "ns/req" (float (t1 - t0) /. float (Trace.length tr));
  print_json
    (O
       [
         ( "metrics",
           O
             (List.rev_map
                (fun (name, unit, v) -> (name, O [ ("value", F v); ("unit", S unit) ]))
                !metrics) );
         ("ops", L (List.map op_json !ops));
         ("meta", O [ ("ocaml", S Sys.ocaml_version) ]);
       ])

(* ---- subcommands ---- *)

let vmhwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l -> (
            match String.split_on_char ':' l with
            | [ "VmHWM"; v ] ->
                int_of_string (String.trim (List.hd (String.split_on_char 'k' v)))
            | _ -> go ())
      in
      go ())

(* Host-speed calibration: a fixed LRU replay (k=64, stdlib Hashtbl and
   Queue, a boxed cost per miss) over a fixed sequence, written here so
   that no change to the repository's code moves it.  Timed after every
   pass; run.py scales the time metrics by its fastest run (README.md,
   "Noise"). *)
let calib_seq =
  lazy
    (Array.init 300_000 (fun i ->
         let x = i * 2654435761 land 0xffffff in
         (x * x) lsr 34 land 4095))

let calib_replay () =
  let tbl = Hashtbl.create 128 and q = Queue.create () and cost = ref 0. in
  Array.iter
    (fun p ->
      match Hashtbl.find_opt tbl p with
      | Some c -> Hashtbl.replace tbl p (c +. 1.)
      | None ->
          cost := !cost +. (Float.of_int p ** 2.);
          if Hashtbl.length tbl >= 64 then begin
            let rec evict () =
              let v = Queue.pop q in
              if Hashtbl.mem tbl v then Hashtbl.remove tbl v else evict ()
            in
            evict ()
          end;
          Hashtbl.replace tbl p 1.;
          Queue.push p q)
    (Lazy.force calib_seq);
  !cost

let calib_ns () =
  Gc.compact ();
  let t0 = now () in
  ignore (Sys.opaque_identity (calib_replay ()));
  ignore (Sys.opaque_identity (calib_replay ()));
  now () - t0

let measure ~workload ~input ~seconds =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let calib = ref [] in
  let rec go acc =
    Gc.compact ();
    let acc = untraced_pass workload ~input :: acc in
    calib := calib_ns () :: !calib;
    if now () >= deadline then List.rev acc else go acc
  in
  let passes = go [] in
  let meta =
    match input with
    | "" -> []
    | f ->
        let h = Tb.open_file f in
        [
          ("length", I (Tb.length h));
          ("users", I (Tb.n_users h));
          ("distinct_pages", I (Tb.n_pages h));
        ]
  in
  print_json
    (O
       [
         ("passes", L (List.map pass_json passes));
         ("calib_s", L (List.rev_map (fun ns -> F (secs ns)) !calib));
         ("ops", L (List.concat_map (fun p -> List.map op_json p.ops) passes));
         ("vmhwm_kb", I (vmhwm_kb ()));
         ("meta", O (("ocaml", S Sys.ocaml_version) :: meta));
       ])

let prepare ~seed ~length ~out =
  let trace = W.generate ~seed ~length (spec ()) in
  let tmp = out ^ ".tmp" in
  Tb.write_file tmp trace;
  Sys.rename tmp out;
  let costs = make_costs (Trace.n_users trace) in
  let replays =
    List.map
      (fun name ->
        let r = Engine.run ~k:replay_k ~costs (policy_of name) trace in
        ("replay/" ^ name, S (md5 (render_result ~costs r))))
      roster
  in
  let served =
    Sv.Service.run (serve_config (policy_of "alg-discrete-fast")) ~costs trace
  in
  print_json
    (O
       (replays
       @ [
           ("serve", S (md5 (serve_report served)));
           ("length", I (Trace.length trace));
           ("users", I (Trace.n_users trace));
           ("distinct_pages", I (Trace.n_pages trace));
         ]))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  let cmd, o =
    match args with c :: rest -> (c, opts [] rest) | [] -> ("", [])
  in
  let get k =
    match List.assoc_opt k o with
    | Some v -> v
    | None -> failwith ("missing --" ^ k)
  in
  let input () = Option.value ~default:"" (List.assoc_opt "input" o) in
  match cmd with
  | "prepare" ->
      prepare ~seed:(int_of_string (get "seed"))
        ~length:(int_of_string (get "length")) ~out:(get "out")
  | "probe" ->
      ignore (untraced_pass ~probe:true (get "workload") ~input:(input ()));
      failwith "probe returned before the first request"
  | "measure" ->
      measure ~workload:(get "workload") ~input:(input ())
        ~seconds:(float_of_string (get "seconds"))
  | "ledger" ->
      ledger ~input:(get "input") ~obs_input:(get "obs-input")
        ~seed:(int_of_string (get "seed"))
        ~length:(int_of_string (get "length"))
  | c ->
      prerr_endline ("usage: bench (prepare|probe|measure|ledger) ... (got " ^ c ^ ")");
      exit 2
