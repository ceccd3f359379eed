(** Command-line simulator: run any policy on a generated or saved
    trace and print per-user results.

    Examples:
      ccache_cli run --policy lru --workload sqlvm --length 5000 -k 64
      ccache_cli run --policy alg-discrete --workload zipf --tenants 4 \
          --cost x2 -k 32 --flush
      ccache_cli gen --workload zipf --length 1000 --out trace.txt
      ccache_cli run --policy alg-discrete --trace trace.txt -k 16
      ccache_cli list *)

open Cmdliner
module Cf = Ccache_cost.Cost_function
module W = Ccache_trace.Workloads

let policies () =
  Ccache_policies.Registry.all
  @ [
      Ccache_core.Alg_discrete.policy;
      Ccache_core.Alg_discrete.analytic;
      Ccache_core.Alg_discrete.no_bump;
      Ccache_core.Alg_discrete.no_subtract;
      Ccache_core.Alg_fast.policy;
    ]

(* An unknown policy name is a usage error: its message and exit 2. *)
let policy_named name =
  match List.find_opt (fun p -> Ccache_sim.Policy.name p = name) (policies ()) with
  | Some p -> p
  | None ->
      Fmt.epr "unknown policy %S; try the 'list' command@." name;
      exit 2

(* A workload the generator rejects (no tenants, no pages, a non-finite
   skew, a negative length) is a usage error: its message and exit 2. *)
let make_workload ~workload ~tenants ~pages ~skew ~seed ~length =
  try
    match workload with
    | "zipf" ->
        W.generate ~seed ~length
          (W.symmetric_zipf ~tenants ~pages_per_tenant:pages ~skew)
    | "sqlvm" ->
        W.generate ~seed ~length (W.sqlvm_mix ~scale:(Stdlib.max 1 (pages / 50)))
    | "cycle" -> W.generate_single ~seed ~length (W.Cycle { pages })
    | "uniform" ->
        W.generate ~seed ~length
          (List.init tenants (fun _ -> W.tenant (W.Uniform { pages })))
    | other ->
        Fmt.epr "unknown workload %S (zipf|sqlvm|cycle|uniform)@." other;
        exit 2
  with Invalid_argument msg ->
    Fmt.epr "bad workload: %s@." msg;
    exit 2

(* [-k] is a cache size: a usage error unless positive. *)
let check_k k =
  if k <= 0 then begin
    Fmt.epr "-k must be positive (got %d)@." k;
    exit 2
  end

(* Malformed trace input is a usage error: report and exit 2 (matching
   cmdliner's convention), never a backtrace. *)
let with_trace_errors f =
  try f () with
  | Ccache_trace.Trace_io.Parse_error { line; msg } ->
      Fmt.epr "trace parse error at line %d: %s@." line msg;
      exit 2
  | Ccache_trace.Trace_binary.Format_error { offset; msg } ->
      Fmt.epr "binary trace error at byte %d: %s@." offset msg;
      exit 2
  | Sys_error msg ->
      Fmt.epr "%s@." msg;
      exit 2

(* "-" = stdin; format sniffed (binary .ctrace vs text). *)
let load_trace path =
  with_trace_errors (fun () ->
      match path with
      | "-" -> Ccache_trace.Trace_io.of_string_any (In_channel.input_all stdin)
      | path -> Ccache_trace.Trace_io.read_any path)

let set_trace_cache dir = Ccache_trace.Trace_cache.set_dir dir

(* The request stream of run, certify and serve: the --trace file, else
   the generated workload. *)
let trace_or_workload trace_file ~workload ~tenants ~pages ~skew ~seed ~length =
  match trace_file with
  | Some path -> load_trace path
  | None -> make_workload ~workload ~tenants ~pages ~skew ~seed ~length

let make_costs ~cost n =
  match cost with
  | "linear" -> Array.init n (fun _ -> Cf.linear ~slope:1.0 ())
  | "weighted" ->
      Array.init n (fun i -> Cf.linear ~slope:(Float.pow 2.0 (float_of_int i)) ())
  | "x2" -> Array.init n (fun _ -> Cf.monomial ~beta:2.0 ())
  | "x3" -> Array.init n (fun _ -> Cf.monomial ~beta:3.0 ())
  | "sla" ->
      Array.init n (fun i ->
          Ccache_cost.Sla.hinge
            ~tolerance:(float_of_int (30 * (i + 1)))
            ~penalty_rate:(float_of_int (n - i)))
  | other ->
      Fmt.epr "unknown cost %S (linear|weighted|x2|x3|sla)@." other;
      exit 2

(* --- run command --- *)

let run_cmd policy_name trace_file workload tenants pages skew seed length k cost
    flush trace_cache trace_out metrics_out =
  let policy = policy_named policy_name in
  check_k k;
  set_trace_cache trace_cache;
  let obs = Obs_args.setup ~trace_out ~metrics_out in
  let trace =
    trace_or_workload trace_file ~workload ~tenants ~pages ~skew ~seed ~length
  in
  let costs = make_costs ~cost (Ccache_trace.Trace.n_users trace) in
  let result = Ccache_sim.Engine.run ~flush ~k ~costs policy trace in
  Fmt.pr "%a@." (Ccache_sim.Metrics.pp_result ~costs) result;
  Obs_args.finish obs;
  0

(* --- gen command --- *)

let gen_cmd workload tenants pages skew seed length binary out trace_cache =
  Option.iter (Supervisor_args.check_writable ~flag:"--out") out;
  set_trace_cache trace_cache;
  let trace = make_workload ~workload ~tenants ~pages ~skew ~seed ~length in
  let write_file, write_channel =
    let open Ccache_trace in
    if binary then (Trace_binary.write_file, Trace_binary.write_channel)
    else (Trace_io.write_file, Trace_io.write_channel)
  in
  (match out with
  | Some path ->
      write_file path trace;
      Fmt.pr "wrote %d requests to %s@." (Ccache_trace.Trace.length trace) path
  | None -> write_channel stdout trace);
  0

(* --- certify command --- *)

let certify_cmd trace_file workload tenants pages skew seed length k cost iters
    trace_cache =
  check_k k;
  set_trace_cache trace_cache;
  let trace =
    trace_or_workload trace_file ~workload ~tenants ~pages ~skew ~seed ~length
  in
  let costs = make_costs ~cost (Ccache_trace.Trace.n_users trace) in
  let c =
    Ccache_analysis.Certificate.certify ~ascent_iterations:iters ~k ~costs trace
  in
  Fmt.pr "%a@." Ccache_analysis.Certificate.pp c;
  Fmt.pr
    "certified: on this instance ALG-DISCRETE pays at most %.3f times any \
     offline schedule (weak duality on (CP))@."
    c.Ccache_analysis.Certificate.certified_ratio;
  0

(* --- sweep command --- *)

module U = Ccache_util

(* Metrics rows round-trip through the checkpoint as one tab-separated
   line; %h floats make the replay bit-exact. *)
let encode_row (r : Ccache_sim.Metrics.row) =
  Printf.sprintf "%s\t%d\t%d\t%h\t%h" r.Ccache_sim.Metrics.policy
    r.Ccache_sim.Metrics.hits r.Ccache_sim.Metrics.misses
    r.Ccache_sim.Metrics.miss_ratio r.Ccache_sim.Metrics.cost

let decode_row s =
  match String.split_on_char '\t' s with
  | [ policy; hits; misses; miss_ratio; cost ] -> (
      match
        ( int_of_string_opt hits,
          int_of_string_opt misses,
          float_of_string_opt miss_ratio,
          float_of_string_opt cost )
      with
      | Some hits, Some misses, Some miss_ratio, Some cost ->
          Some { Ccache_sim.Metrics.policy; hits; misses; miss_ratio; cost }
      | _ -> None)
  | _ -> None

let row_codec = { U.Supervisor.encode = encode_row; decode = decode_row }

(* Multi-k (or multi-policy) sweep over one workload, evaluated on a
   domain pool when --jobs > 1 and always under the supervised runner:
   transient faults are retried, a permanently-failing cell is
   quarantined (row omitted, note on stderr, exit 3) while the rest of
   the sweep completes, and --checkpoint/--resume snapshot and replay
   finished cells bit-for-bit.  The trace is generated once up front
   and shared read-only across domains; each (policy, k) cell is an
   independent simulation, so the table is identical at every job
   count. *)
let sweep_cmd policy_names workload tenants pages skew seed length k_min k_max
    k_factor cost flush (sup : Supervisor_args.t) trace_cache trace_out
    metrics_out =
  set_trace_cache trace_cache;
  let obs = Obs_args.setup ~trace_out ~metrics_out in
  if k_min <= 0 || k_max < k_min then begin
    Fmt.epr "bad cache-size range: need 0 < --k-min <= --k-max (got %d..%d)@."
      k_min k_max;
    exit 2
  end;
  if (not (Float.is_finite k_factor)) || k_factor <= 1.0 then begin
    Fmt.epr "--k-factor must be finite and exceed 1 (got %g)@." k_factor;
    exit 2
  end;
  let policy_names = if policy_names = [] then [ "alg-discrete" ] else policy_names in
  let policies = List.map policy_named policy_names in
  let trace = make_workload ~workload ~tenants ~pages ~skew ~seed ~length in
  let costs = make_costs ~cost (Ccache_trace.Trace.n_users trace) in
  (* one index for every offline cell; online policies never read it *)
  let index =
    if List.exists Ccache_sim.Policy.needs_future policies then
      Some (Ccache_trace.Trace.Index.build trace)
    else None
  in
  let ks =
    Ccache_sim.Sweep.geometric ~start:k_min ~stop:k_max ~factor:k_factor
  in
  let cells = Ccache_sim.Sweep.product policies ks in
  let task_id (policy, k) =
    Printf.sprintf "%s/k=%d" (Ccache_sim.Policy.name policy) k
  in
  let fingerprint =
    Printf.sprintf
      "sweep-v1 workload=%s tenants=%d pages=%d skew=%h seed=%d length=%d \
       k=%d..%d*%h cost=%s flush=%b policies=%s"
      workload tenants pages skew seed length k_min k_max k_factor cost flush
      (String.concat "," (List.map Ccache_sim.Policy.name policies))
  in
  let checkpoint = Supervisor_args.checkpoint sup ~fingerprint in
  let eval (policy, k) =
    Ccache_sim.Metrics.row ~costs
      (Ccache_sim.Engine.run ~flush ?index ~k ~costs policy trace)
  in
  let results =
    Ccache_sim.Sweep.run_supervised ?pool:sup.pool ~policy:sup.policy
      ~fault:sup.fault ?checkpoint ~codec:row_codec
      ~on_event:Supervisor_args.on_event ~task_id cells ~f:eval
  in
  let module Tbl = Ccache_util.Ascii_table in
  let tbl =
    Tbl.create
      ~title:
        (Printf.sprintf "sweep: %s, %d requests, cost=%s" workload length cost)
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "policy"; "k"; "misses"; "miss%"; "cost" ]
  in
  let failures =
    List.filter_map
      (fun ((_, k), outcome) ->
        match outcome with
        | U.Supervisor.Completed row ->
            Tbl.add_row tbl
              [
                row.Ccache_sim.Metrics.policy;
                Tbl.cell_int k;
                Tbl.cell_int row.Ccache_sim.Metrics.misses;
                Tbl.cell_pct row.Ccache_sim.Metrics.miss_ratio;
                Tbl.cell_float ~digits:2 row.Ccache_sim.Metrics.cost;
              ];
            None
        | U.Supervisor.Quarantined f -> Some f)
      results
  in
  Tbl.print tbl;
  (* the map joined every worker domain: shards are complete *)
  Obs_args.finish obs;
  Supervisor_args.report sup failures

(* --- serve command --- *)

module Serve = Ccache_serve

(* Sharded service over a recorded or generated request stream.  The
   logical-clock scheduler makes the whole run a pure function of the
   configuration, so the report is byte-identical at every --jobs
   width; shards execute as supervised tasks (ids "shard/<i>"), so
   --kill shard/1 quarantines one shard while the rest complete, and
   --checkpoint/--resume replay finished shards bit-for-bit. *)
let serve_cmd policy_name trace_file workload tenants pages skew seed length k
    cost shards batch queue_cap clients rate route overload
    (sup : Supervisor_args.t) trace_cache trace_out metrics_out =
  let policy = policy_named policy_name in
  if Ccache_sim.Policy.needs_future policy then begin
    Fmt.epr "offline policy %S cannot serve (no future on a request stream)@."
      policy_name;
    exit 2
  end;
  check_k k;
  if shards <= 0 || batch <= 0 || queue_cap <= 0 || clients <= 0 || rate <= 0
  then begin
    Fmt.epr
      "--shards, --batch, --queue-cap, --clients and --rate must be \
       positive@.";
    exit 2
  end;
  (* each shard gets k / shards pages, so any other k would serve
     a different total cache than the one asked for *)
  if k mod shards <> 0 then begin
    Fmt.epr "-k %d is not a multiple of --shards %d@." k shards;
    exit 2
  end;
  set_trace_cache trace_cache;
  let obs = Obs_args.setup ~trace_out ~metrics_out in
  let trace =
    trace_or_workload trace_file ~workload ~tenants ~pages ~skew ~seed ~length
  in
  let costs = make_costs ~cost (Ccache_trace.Trace.n_users trace) in
  let router =
    match route with
    | "page" -> Serve.Router.by_page ~shards
    | "tenant" -> Serve.Router.by_tenant ~shards
    | other ->
        Fmt.epr "unknown route %S (page|tenant)@." other;
        exit 2
  in
  let overload =
    match overload with
    | "block" -> Serve.Scheduler.Block
    | "reject" -> Serve.Scheduler.Reject
    | other ->
        Fmt.epr "unknown overload mode %S (block|reject)@." other;
        exit 2
  in
  let shard_k = k / shards in
  let config =
    Serve.Service.config ~policy ~clients ~overload ~client_rate:rate ~batch
      ~queue_cap ~router ~shard_k ()
  in
  let fingerprint = Serve.Service.fingerprint config ~costs trace in
  let checkpoint = Supervisor_args.checkpoint sup ~fingerprint in
  let result =
    Serve.Service.run_supervised ?pool:sup.pool ~policy:sup.policy
      ~fault:sup.fault ?checkpoint ~on_event:Supervisor_args.on_event config
      ~costs trace
  in
  (match result.Serve.Service.outcome with
  | Some r ->
      let s = r.Serve.Service.schedule in
      Fmt.pr
        "serve: %d shards (route=%s), k=%d/shard, batch=%d, queue-cap=%d, %d \
         client(s) x rate %d, overload=%s@."
        shards
        (Serve.Router.name router)
        shard_k batch queue_cap clients rate
        (Serve.Scheduler.overload_name
           config.Serve.Service.sched.Serve.Scheduler.overload);
      Fmt.pr
        "requests %d  admitted %d  rejected %d  stalls %d  rounds %d  \
         throughput %.2f req/round@."
        (Serve.Service.requests r)
        s.Serve.Scheduler.admitted s.Serve.Scheduler.rejected
        s.Serve.Scheduler.stalls s.Serve.Scheduler.rounds
        r.Serve.Service.throughput;
      Fmt.pr "hits %d  misses %d  total cost %.2f@." r.Serve.Service.hits
        (Serve.Service.misses r) r.Serve.Service.total_cost;
      let module Tbl = Ccache_util.Ascii_table in
      let tbl =
        Tbl.create ~title:"per-shard"
          ~aligns:
            [
              Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right;
              Tbl.Right; Tbl.Right;
            ]
          [
            "shard"; "requests"; "batches"; "maxdepth"; "meanwait"; "rejected";
            "hits"; "misses";
          ]
      in
      Array.iteri
        (fun i (ss : Serve.Scheduler.shard_schedule) ->
          let er = r.Serve.Service.engines.(i) in
          let drained = Array.length ss.Serve.Scheduler.pages in
          let mean_wait =
            if drained = 0 then 0.
            else
              float_of_int (Array.fold_left ( + ) 0 ss.Serve.Scheduler.waits)
              /. float_of_int drained
          in
          Tbl.add_row tbl
            [
              Tbl.cell_int i;
              Tbl.cell_int drained;
              Tbl.cell_int (Array.length ss.Serve.Scheduler.batches);
              Tbl.cell_int ss.Serve.Scheduler.max_depth;
              Tbl.cell_float ~digits:2 mean_wait;
              Tbl.cell_int ss.Serve.Scheduler.rejected;
              Tbl.cell_int er.Ccache_sim.Engine.hits;
              Tbl.cell_int (Ccache_sim.Engine.misses er);
            ])
        s.Serve.Scheduler.shards;
      Tbl.print tbl
  | None -> ());
  Obs_args.finish obs;
  Supervisor_args.report sup result.Serve.Service.failures

(* --- trace command group --- *)

module Tio = Ccache_trace.Trace_io
module Tbin = Ccache_trace.Trace_binary
module Text = Ccache_trace.Trace_extern

(* Format sniffing for 'trace convert --format auto': binary magic,
   then the text header, else the R/W address format. *)
let parse_input ~format ~page_shift s =
  match format with
  | "auto" ->
      if Tbin.looks_binary s then Tbin.of_string s
      else if Tio.looks_text s then Tio.of_string s
      else Text.of_string_rw ~page_shift s
  | "binary" -> Tbin.of_string s
  | "text" -> Tio.of_string s
  | other -> (
      match Text.format_of_string other with
      | Some fmt -> Text.of_string ~page_shift fmt s
      | None ->
          Fmt.epr "unknown trace format %S (auto|binary|text|rw|lackey)@." other;
          exit 2)

let trace_convert_cmd in_file format page_shift text out =
  with_trace_errors @@ fun () ->
  if page_shift < 0 || page_shift > 62 then begin
    Fmt.epr "--page-shift must be in [0, 62]@.";
    exit 2
  end;
  let trace = parse_input ~format ~page_shift (Tio.read_all in_file) in
  let write_file, write_channel =
    if text then (Tio.write_file, Tio.write_channel)
    else (Tbin.write_file, Tbin.write_channel)
  in
  (match out with
  | Some path ->
      write_file path trace;
      Fmt.epr "wrote %d requests (%d users, %d distinct pages) to %s@."
        (Ccache_trace.Trace.length trace)
        (Ccache_trace.Trace.n_users trace)
        (Ccache_trace.Trace.n_pages trace)
        path
  | None -> write_channel stdout trace);
  0

let trace_stat_cmd in_file =
  with_trace_errors @@ fun () ->
  (* binary stat never materialises the trace: header + dictionary,
     then one allocation-free validating pass over the mapped
     requests *)
  if in_file <> "-" && Tbin.file_looks_binary in_file then begin
    let h = Tbin.open_file in_file in
    Tbin.validate h;
    Fmt.pr "format binary@.requests %d@.users %d@.distinct %d@." (Tbin.length h)
      (Tbin.n_users h) (Tbin.n_pages h)
  end
  else begin
    let s = Tio.read_all in_file in
    let trace = if Tbin.looks_binary s then Tbin.of_string s else Tio.of_string s in
    Fmt.pr "format %s@.requests %d@.users %d@.distinct %d@."
      (if Tbin.looks_binary s then "binary" else "text")
      (Ccache_trace.Trace.length trace)
      (Ccache_trace.Trace.n_users trace)
      (Ccache_trace.Trace.n_pages trace)
  end;
  0

let trace_head_cmd in_file n =
  with_trace_errors @@ fun () ->
  if in_file <> "-" && Tbin.file_looks_binary in_file then begin
    (* zero-copy path: decode just the first n requests off the mmap *)
    let h = Tbin.open_file in_file in
    for i = 0 to Stdlib.min n (Tbin.length h) - 1 do
      let p = Tbin.page_at h i in
      Fmt.pr "%d %d@."
        (Ccache_trace.Page.user p)
        (Ccache_trace.Page.id p)
    done
  end
  else begin
    let trace = Tio.of_string_any (Tio.read_all in_file) in
    for i = 0 to Stdlib.min n (Ccache_trace.Trace.length trace) - 1 do
      let p = Ccache_trace.Trace.request trace i in
      Fmt.pr "%d %d@."
        (Ccache_trace.Page.user p)
        (Ccache_trace.Page.id p)
    done
  end;
  0

(* --- list command --- *)

let list_cmd () =
  Fmt.pr "policies:@.";
  List.iter (fun p -> Fmt.pr "  %s@." (Ccache_sim.Policy.name p)) (policies ());
  Fmt.pr "workloads: zipf sqlvm cycle uniform@.";
  Fmt.pr "costs: linear weighted x2 x3 sla@.";
  0

(* --- cmdliner plumbing --- *)

let policy_arg =
  Arg.(value & opt string "alg-discrete" & info [ "policy" ] ~docv:"NAME")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE")

let workload_arg = Arg.(value & opt string "zipf" & info [ "workload" ])
let tenants_arg = Arg.(value & opt int 4 & info [ "tenants" ])
let pages_arg = Arg.(value & opt int 64 & info [ "pages" ])
let skew_arg = Arg.(value & opt float 0.8 & info [ "skew" ])
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ])
let length_arg = Arg.(value & opt int 5000 & info [ "length" ])
let k_arg = Arg.(value & opt int 64 & info [ "k"; "cache-size" ])
let cost_arg = Arg.(value & opt string "x2" & info [ "cost" ])
let flush_arg = Arg.(value & flag & info [ "flush" ])
let out_arg = Arg.(value & opt (some string) None & info [ "out" ])
let iters_arg = Arg.(value & opt int 80 & info [ "iterations" ])

let binary_arg =
  Arg.(
    value & flag
    & info [ "binary" ]
        ~doc:"Write the zero-copy binary .ctrace format instead of text.")

let trace_cache_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-cache" ] ~docv:"DIR"
        ~doc:
          "Cache generated workload traces as .ctrace binaries under \
           $(docv), keyed by a fingerprint of (seed, length, tenant \
           specs); repeated runs mmap the stored trace instead of \
           regenerating it.  Byte-identical results either way.")

let trace_in_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Input trace file ('-' = stdin).")

let trace_format_arg =
  Arg.(
    value & opt string "auto"
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Input format: 'auto' (sniff binary magic, then the text \
           header, else rw), 'binary', 'text', 'rw' (R/W 0xADDR lines), \
           or 'lackey' (valgrind --tool=lackey --trace-mem dumps).")

let page_shift_arg =
  Arg.(
    value & opt int Ccache_trace.Trace_extern.default_page_shift
    & info [ "page-shift" ] ~docv:"N"
        ~doc:
          "Map addresses to pages by shifting right $(docv) bits \
           (default 12 = 4 KiB pages; rw/lackey formats only).")

let text_out_arg =
  Arg.(
    value & flag
    & info [ "text" ] ~doc:"Write the text format instead of binary .ctrace.")

let head_n_arg =
  Arg.(
    value & opt int 10
    & info [ "n"; "lines" ] ~docv:"N" ~doc:"Requests to print (default 10).")

let policies_arg =
  Arg.(
    value & opt_all string []
    & info [ "policy" ] ~docv:"NAME"
        ~doc:"Policy to sweep (repeatable; default alg-discrete).")

let k_min_arg = Arg.(value & opt int 16 & info [ "k-min" ] ~docv:"K")
let k_max_arg = Arg.(value & opt int 512 & info [ "k-max" ] ~docv:"K")

let k_factor_arg =
  Arg.(value & opt float 2.0 & info [ "k-factor" ] ~docv:"F")

let shards_arg =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N"
        ~doc:"Partition the page space across $(docv) engine shards.")

let batch_arg =
  Arg.(
    value & opt int 8
    & info [ "batch" ] ~docv:"B"
        ~doc:"Requests a shard drains per logical round (default 8).")

let queue_cap_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Bound on each shard's request queue (default 64).")

let clients_arg =
  Arg.(
    value & opt int 1
    & info [ "clients" ] ~docv:"N"
        ~doc:
          "Deal the request stream round-robin over $(docv) client \
           streams (default 1).")

let rate_arg =
  Arg.(
    value & opt int 1
    & info [ "rate" ] ~docv:"R"
        ~doc:"Requests each client emits per round (default 1).")

let route_arg =
  Arg.(
    value & opt string "page"
    & info [ "route" ] ~docv:"MODE"
        ~doc:
          "Shard routing: 'page' (hash partition of the page space) or \
           'tenant' (each user pinned to one shard).")

let overload_arg =
  Arg.(
    value & opt string "block"
    & info [ "overload" ] ~docv:"MODE"
        ~doc:
          "Backpressure on a full shard queue: 'block' (head-of-line \
           stall, nothing dropped) or 'reject' (drop and count).")

let trace_out_arg = Obs_args.trace_out
let metrics_out_arg = Obs_args.metrics_out

let run_term =
  Term.(
    const run_cmd $ policy_arg $ trace_arg $ workload_arg $ tenants_arg
    $ pages_arg $ skew_arg $ seed_arg $ length_arg $ k_arg $ cost_arg $ flush_arg
    $ trace_cache_arg $ trace_out_arg $ metrics_out_arg)

let certify_term =
  Term.(
    const certify_cmd $ trace_arg $ workload_arg $ tenants_arg $ pages_arg
    $ skew_arg $ seed_arg $ length_arg $ k_arg $ cost_arg $ iters_arg
    $ trace_cache_arg)

let gen_term =
  Term.(
    const gen_cmd $ workload_arg $ tenants_arg $ pages_arg $ skew_arg $ seed_arg
    $ length_arg $ binary_arg $ out_arg $ trace_cache_arg)

let sweep_term =
  Term.(
    const sweep_cmd $ policies_arg $ workload_arg $ tenants_arg $ pages_arg
    $ skew_arg $ seed_arg $ length_arg $ k_min_arg $ k_max_arg $ k_factor_arg
    $ cost_arg $ flush_arg $ Supervisor_args.term $ trace_cache_arg
    $ trace_out_arg $ metrics_out_arg)

let serve_term =
  Term.(
    const serve_cmd $ policy_arg $ trace_arg $ workload_arg $ tenants_arg
    $ pages_arg $ skew_arg $ seed_arg $ length_arg $ k_arg $ cost_arg
    $ shards_arg $ batch_arg $ queue_cap_arg $ clients_arg $ rate_arg
    $ route_arg $ overload_arg $ Supervisor_args.term $ trace_cache_arg
    $ trace_out_arg $ metrics_out_arg)

let trace_cmd_group =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Inspect and convert trace files (text, binary .ctrace, external \
          address formats)")
    [
      Cmd.v
        (Cmd.info "convert"
           ~doc:
             "Convert a trace (text, R/W address lines, valgrind-lackey \
              dump) to the zero-copy binary .ctrace format (or, with \
              --text, to the text format)")
        Term.(
          const trace_convert_cmd $ trace_in_arg $ trace_format_arg
          $ page_shift_arg $ text_out_arg $ out_arg);
      Cmd.v
        (Cmd.info "stat"
           ~doc:
             "Print request/user/distinct-page counts.  A binary file is \
              read in place: its header and dictionary, then one \
              validating pass over the mapped requests (O(T) reads, no \
              allocation per request).")
        Term.(const trace_stat_cmd $ trace_in_arg);
      Cmd.v
        (Cmd.info "head" ~doc:"Print the first N requests as 'user page' lines")
        Term.(const trace_head_cmd $ trace_in_arg $ head_n_arg);
    ]

let cmd =
  Cmd.group
    (Cmd.info "ccache_cli" ~doc:"Convex-cost caching simulator")
    [
      Cmd.v (Cmd.info "run" ~doc:"Run a policy on a trace") run_term;
      Cmd.v
        (Cmd.info "serve"
           ~doc:
             "Serve a request stream through a sharded cache service \
              (deterministic logical-clock replay)")
        serve_term;
      Cmd.v (Cmd.info "gen" ~doc:"Generate a trace file") gen_term;
      trace_cmd_group;
      Cmd.v
        (Cmd.info "sweep"
           ~doc:"Sweep policies across cache sizes, optionally in parallel")
        sweep_term;
      Cmd.v
        (Cmd.info "certify"
           ~doc:"Run ALG-DISCRETE and certify its per-instance ratio")
        certify_term;
      Cmd.v (Cmd.info "list" ~doc:"List policies, workloads, costs")
        Term.(const list_cmd $ const ());
    ]

let () = exit (Cmd.eval' cmd)
