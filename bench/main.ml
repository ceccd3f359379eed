(* Benchmark harness (Bechamel).

   Three families, per DESIGN.md Section 4:

   - experiment regeneration: one Test per experiment E1..E10 wrapping
     the Quick-size runner (the full tables themselves are printed by
     `dune exec bin/experiments.exe`; here we time the regeneration,
     proving each is a push-button artefact);
   - throughput microbenchmarks: requests/second for every policy at
     two cache sizes, the fast-vs-reference ALG-DISCRETE comparison
     (DESIGN decision 2), the dual-solver iteration cost, and core data
     structure operations;
   - parallel-vs-serial: the E-suite and a multi-k policy sweep run
     sequentially and on a Domain_pool, with the speedup printed (the
     ratio only exceeds 1 on multicore hardware; domains oversubscribed
     onto one core pay minor-GC synchronisation for no parallelism).

   `--smoke` runs every group once with a tiny measurement quota — a
   CI-friendly time-boxed pass proving the harness itself still works.

   `--json PATH` writes this run's rows to PATH in the BENCH_NNNN.json
   shape; without it no file is written.

   `--baseline PATH` compares this run against a committed artifact
   (BENCH_NNNN.json): a per-row delta table is printed, and the process
   exits non-zero if any row regressed beyond `--threshold PCT`
   (default 25%).  CI runs this as a non-blocking perf-diff job; the
   threshold is deliberately loose because shared runners are noisy —
   the table, not the exit code, is the artefact of record.

   Output: one line per benchmark with the OLS estimate of
   nanoseconds/run and derived requests/second where meaningful. *)

open Bechamel
open Toolkit

let smoke = Array.exists (String.equal "--smoke") Sys.argv

let flag_value name =
  let v = ref None in
  Array.iteri
    (fun i a ->
      if String.equal a name && i + 1 < Array.length Sys.argv then
        v := Some Sys.argv.(i + 1))
    Sys.argv;
  !v

(* An artifact is written only to an explicit --json PATH, never to a
   default one: a default could be the committed baseline that
   --baseline reads, and each run would then be diffed against its own
   numbers. *)
let json_path = flag_value "--json"

let baseline_path = flag_value "--baseline"

(* regression threshold, percent slower-than-baseline *)
let threshold_pct =
  match flag_value "--threshold" with
  | None -> 25.0
  | Some s -> (
      match float_of_string_opt s with
      | Some v when v > 0.0 -> v
      | _ ->
          prerr_endline "--threshold must be a positive number (percent)";
          exit 2)

(* ------------------------------------------------------------------ *)
(* Shared fixtures (built once, outside the timed thunks)              *)
(* ------------------------------------------------------------------ *)

module Cf = Ccache_cost.Cost_function
module W = Ccache_trace.Workloads
module Engine = Ccache_sim.Engine

let trace_len = 20_000
let tenants = 5

(* Fixtures are forced on first use, not at module init: the
   data-structure microbenches never touch them, and a per-op cost of
   ~100 ns is sensitive to the GC pressure of whatever is resident in
   the major heap — measured ~25% higher with the trace fixtures live
   than against an empty heap. *)
let fixture_trace =
  lazy (W.generate ~seed:99 ~length:trace_len (W.sqlvm_mix ~scale:2))

let fixture_costs =
  lazy
    (Array.init tenants (fun i ->
         match i mod 3 with
         | 0 -> Cf.monomial ~beta:2.0 ()
         | 1 -> Cf.linear ~slope:2.0 ()
         | _ -> Ccache_cost.Sla.hinge ~tolerance:100.0 ~penalty_rate:4.0))

let fixture_index = lazy (Ccache_trace.Trace.Index.build (Lazy.force fixture_trace))

let run_policy ~k policy () =
  ignore
    (Engine.run ~index:(Lazy.force fixture_index) ~k
       ~costs:(Lazy.force fixture_costs) policy (Lazy.force fixture_trace))

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let experiment_tests =
  let quick (e : Ccache_analysis.Experiment.t) =
    Test.make ~name:e.Ccache_analysis.Experiment.id
      (Staged.stage (fun () ->
           ignore (e.Ccache_analysis.Experiment.run Ccache_analysis.Experiment.Quick)))
  in
  Test.make_grouped ~name:"experiments"
    (List.map quick Ccache_analysis.Suite.all)

let policy_tests ~k =
  let bench policy =
    Test.make
      ~name:(Ccache_sim.Policy.name policy)
      (Staged.stage (run_policy ~k policy))
  in
  Test.make_grouped
    ~name:(Printf.sprintf "policies_k%d" k)
    (List.map bench
       (Ccache_policies.Registry.all
       @ [ Ccache_core.Alg_discrete.policy; Ccache_core.Alg_fast.policy ]))

let fast_vs_ref_tests =
  Test.make_grouped ~name:"alg_fast_vs_ref"
    (List.concat_map
       (fun k ->
         [
           Test.make
             ~name:(Printf.sprintf "reference_k%d" k)
             (Staged.stage (run_policy ~k Ccache_core.Alg_discrete.policy));
           Test.make
             ~name:(Printf.sprintf "fast_k%d" k)
             (Staged.stage (run_policy ~k Ccache_core.Alg_fast.policy));
         ])
       (* crossover sweep: the reference is O(k) per eviction, the heap
          implementation O(log k) — small k favours the flat scan,
          large k the heaps *)
       [ 64; 256; 512; 1024; 4096 ])

let dual_solver_test =
  (* small fixed program; measures cost per ascent iteration batch *)
  let cp =
    lazy
      (let small_trace = W.generate ~seed:5 ~length:400 (W.sqlvm_mix ~scale:1) in
       let costs = Array.init 5 (fun _ -> Cf.monomial ~beta:2.0 ()) in
       Ccache_cp.Formulation.of_trace ~flush:true ~cache_size:16 ~costs
         small_trace)
  in
  Test.make ~name:"dual_solver_20iters"
    (Staged.stage (fun () ->
         ignore
           (Ccache_cp.Dual_solver.solve ~iterations:20 (Lazy.force cp))))

let structure_tests =
  let heap_ops () =
    let h = Ccache_util.Indexed_heap.create ~n:1000 () in
    for i = 0 to 999 do
      Ccache_util.Indexed_heap.add h ~key:i ~prio:(float_of_int ((i * 7919) mod 1000))
    done;
    for i = 0 to 999 do
      Ccache_util.Indexed_heap.update h ~key:i ~prio:(float_of_int ((i * 104729) mod 1000))
    done;
    while not (Ccache_util.Indexed_heap.is_empty h) do
      ignore (Ccache_util.Indexed_heap.pop h)
    done
  in
  let rank_list_ops () =
    let module L = Ccache_util.Rank_list in
    let l = L.create ~ranks:1000 ~lists:1 in
    for r = 0 to 999 do
      L.push_front l 0 r
    done;
    (* move to front *)
    for r = 0 to 999 do
      L.remove l r;
      L.push_front l 0 r
    done;
    for r = 0 to 999 do
      L.remove l r
    done
  in
  Test.make_grouped ~name:"structures"
    [
      Test.make ~name:"indexed_heap_1k" (Staged.stage heap_ops);
      Test.make ~name:"rank_list_1k" (Staged.stage rank_list_ops);
    ]

(* ------------------------------------------------------------------ *)
(* Parallel vs serial (Domain_pool)                                    *)
(* ------------------------------------------------------------------ *)

module Pool = Ccache_util.Domain_pool

let pool_width = if smoke then 2 else 4

(* A pool is only a width: each pooled map spawns its domains and
   joins them before it returns, so the timed runs include that cost. *)
let pool = Pool.create ~size:pool_width ()

let bench_suite =
  (* smoke keeps the per-run cost bounded; the full group times the
     entire E-suite, the headline number for --jobs regeneration *)
  let specs =
    if smoke then
      List.filteri (fun i _ -> i < 4) Ccache_analysis.Suite.all
    else Ccache_analysis.Suite.all
  in
  fun pool () ->
    ignore
      (Ccache_analysis.Experiment.run_all ?pool
         ~size:Ccache_analysis.Experiment.Quick specs)

let sweep_ks = [ 16; 32; 64; 128; 256; 512 ]

let bench_ksweep pool () =
  ignore
    (Ccache_sim.Sweep.run ?pool sweep_ks ~f:(fun k ->
         Ccache_sim.Engine.run ~index:(Lazy.force fixture_index) ~k
           ~costs:(Lazy.force fixture_costs) Ccache_core.Alg_fast.policy
           (Lazy.force fixture_trace)))

let parallel_tests =
  Test.make_grouped ~name:"parallel_vs_serial"
    [
      Test.make ~name:"e_suite_serial" (Staged.stage (bench_suite None));
      Test.make
        ~name:(Printf.sprintf "e_suite_pool%d" pool_width)
        (Staged.stage (bench_suite (Some pool)));
      Test.make ~name:"k_sweep_serial" (Staged.stage (bench_ksweep None));
      Test.make
        ~name:(Printf.sprintf "k_sweep_pool%d" pool_width)
        (Staged.stage (bench_ksweep (Some pool)));
    ]

(* ------------------------------------------------------------------ *)
(* Engine-cell sweeps: run_cells vs the per-cell pipeline              *)
(* ------------------------------------------------------------------ *)

(* Two grid families:

   - [mixed_*]: the E5/E13 table shape — every registry policy plus the
     paper's algorithm at spreading cache sizes, one shared trace.
     Policy work dominates.
   - [calib_*]: the E13 binding-calibration shape — an offline-policy
     (belady) k-sweep over one shared trace.  Here the per-cell fixed
     costs (the O(T) trace index; for [percell], also the trace
     generation) rival the per-cell replay.

   Arms: [run_cells] is the production path (Sweep.run_cells: one
   Engine.run per cell, offline cells sharing one trace index);
   [percell] is the pre-sharing experiment pipeline — regenerate the
   trace and rebuild the index for every cell, as the seed's grid
   experiments (E2, E12) did before their traces were hoisted into
   shared cells. *)
let sweep_cell_counts = [ 1; 4; 16; 64 ]

let sweep_policies =
  lazy
    (Ccache_policies.Registry.all
    @ [ Ccache_core.Alg_discrete.policy; Ccache_core.Alg_fast.policy ])

let mixed_cells n =
  let pols = Lazy.force sweep_policies in
  let npol = List.length pols in
  List.init n (fun i ->
      Ccache_sim.Sweep.cell
        ~k:(64 * (1 + (i / npol)))
        ~costs:(Lazy.force fixture_costs)
        (List.nth pols (i mod npol))
        (Lazy.force fixture_trace))

let calib_ks n = List.init n (fun i -> 424 + (4 * i))

let calib_costs =
  lazy (Array.init tenants (fun _ -> Cf.linear ~slope:1.0 ()))

let calib_cells n =
  List.map
    (fun k ->
      Ccache_sim.Sweep.cell ~k ~costs:(Lazy.force calib_costs)
        Ccache_policies.Belady.policy (Lazy.force fixture_trace))
    (calib_ks n)

let calib_percell n () =
  (* the seed pipeline: every cell regenerates and re-indexes *)
  List.iter
    (fun k ->
      let trace = W.generate ~seed:99 ~length:trace_len (W.sqlvm_mix ~scale:2) in
      ignore
        (Engine.run ~k ~costs:(Lazy.force calib_costs)
           Ccache_policies.Belady.policy trace))
    (calib_ks n)

let sweep_tests =
  let run_cells name cells =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Ccache_sim.Sweep.run_cells (Lazy.force cells))))
  in
  Test.make_grouped ~name:"run_cells_vs_percell"
    (List.concat_map
       (fun n ->
         [
           run_cells (Printf.sprintf "mixed_run_cells_%dcells" n)
             (lazy (mixed_cells n));
           run_cells (Printf.sprintf "calib_run_cells_%dcells" n)
             (lazy (calib_cells n));
           Test.make
             ~name:(Printf.sprintf "calib_percell_%dcells" n)
             (Staged.stage (calib_percell n));
         ])
       sweep_cell_counts)

(* ------------------------------------------------------------------ *)
(* Trace substrate: binary format, mmap open, dense index              *)
(* ------------------------------------------------------------------ *)

module Tbin = Ccache_trace.Trace_binary
module Trace = Ccache_trace.Trace

let substrate_len = 1_000_000
let substrate_specs () = W.symmetric_zipf ~tenants:4 ~pages_per_tenant:4096 ~skew:0.9

let temp_ctrace trace =
  let path = Filename.temp_file "ccache_bench" ".ctrace" in
  Tbin.write_file path trace;
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* prebuilt 1e6-request binary: the "open an existing trace" side of the
   generate-vs-mmap comparison *)
let substrate_file =
  lazy
    (temp_ctrace (W.generate ~seed:7 ~length:substrate_len (substrate_specs ())))

(* the 20k fixture as a binary handle, for array-vs-Bigarray scans *)
let fixture_handle =
  lazy (Tbin.open_file (temp_ctrace (Lazy.force fixture_trace)))

(* [Trace.requests] builds a fresh array on each call: build it once so
   the boxed scan times the scan alone *)
let fixture_requests = lazy (Trace.requests (Lazy.force fixture_trace))

(* The Page.Tbl-based Index.build this PR replaced, replicated here so
   the dense rewrite keeps an honest in-tree baseline to race against. *)
let index_build_hashtbl trace =
  let module PT = Ccache_trace.Page.Tbl in
  let n = Trace.length trace in
  let counts = PT.create 256 in
  let last_pos = PT.create 256 in
  let first_use = PT.create 256 in
  let interval = Array.make n 0 in
  let next_use = Array.make n Int.max_int in
  let prev_use = Array.make n (-1) in
  let distinct_upto = Array.make n 0 in
  let distinct = ref 0 in
  for pos = 0 to n - 1 do
    let p = Trace.request trace pos in
    let c = (match PT.find_opt counts p with Some c -> c | None -> 0) + 1 in
    PT.replace counts p c;
    interval.(pos) <- c;
    (match PT.find_opt last_pos p with
    | Some prev ->
        next_use.(prev) <- pos;
        prev_use.(pos) <- prev
    | None ->
        incr distinct;
        PT.replace first_use p pos);
    PT.replace last_pos p pos;
    distinct_upto.(pos) <- !distinct
  done;
  (interval, next_use, prev_use, distinct_upto, counts, first_use)

let substrate_tests =
  let gen_1e6 () =
    ignore
      (Sys.opaque_identity
         (W.generate ~seed:7 ~length:substrate_len (substrate_specs ())))
  in
  let mmap_open_1e6 () =
    (* O(P) header+dictionary; the request region is mapped, not read *)
    ignore (Sys.opaque_identity (Tbin.open_file (Lazy.force substrate_file)))
  in
  let mmap_materialize_1e6 () =
    ignore
      (Sys.opaque_identity (Tbin.to_trace (Tbin.open_file (Lazy.force substrate_file))))
  in
  let scan_boxed_20k () =
    let requests = Lazy.force fixture_requests in
    let acc = ref 0 in
    for i = 0 to Array.length requests - 1 do
      acc := !acc + Ccache_trace.Page.pack requests.(i)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let scan_bigarray_20k () =
    let h = Lazy.force fixture_handle in
    let acc = ref 0 in
    for i = 0 to Tbin.length h - 1 do
      acc := !acc + Tbin.dense_at h i
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let index_dense_20k () =
    ignore (Sys.opaque_identity (Trace.Index.build (Lazy.force fixture_trace)))
  in
  let index_hashtbl_20k () =
    ignore (Sys.opaque_identity (index_build_hashtbl (Lazy.force fixture_trace)))
  in
  Test.make_grouped ~name:"trace_substrate"
    [
      Test.make ~name:"gen_zipf_1e6" (Staged.stage gen_1e6);
      Test.make ~name:"mmap_open_1e6" (Staged.stage mmap_open_1e6);
      Test.make ~name:"mmap_materialize_1e6" (Staged.stage mmap_materialize_1e6);
      Test.make ~name:"scan_boxed_20k" (Staged.stage scan_boxed_20k);
      Test.make ~name:"scan_bigarray_20k" (Staged.stage scan_bigarray_20k);
      Test.make ~name:"index_build_dense_20k" (Staged.stage index_dense_20k);
      Test.make ~name:"index_build_hashtbl_20k" (Staged.stage index_hashtbl_20k);
    ]

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let benchmark test =
  (* smoke stays time-boxed, but a single sample gave OLS estimates too
     noisy to diff against a baseline (observed 1.5-2x run-to-run swings
     on cheap tests), and with fewer than ~10 samples the cold first
     runs of a test tilt the OLS slope well above steady state.  A
     larger sample budget keeps cheap rows dominated by warm
     high-run-count samples; expensive rows still stop after a run or
     two, bounding the total pass. *)
  let cfg =
    if smoke then
      (* geometric run growth reaches warm high-run samples quickly;
         the default +1-per-sample growth never leaves the cold zone
         inside a smoke quota *)
      Benchmark.cfg ~limit:100 ~quota:(Time.second 0.4)
        ~sampling:(`Geometric 1.2) ~kde:None ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  Benchmark.all cfg Instance.[ monotonic_clock ] test

let analyze results =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock results

let report ~requests_per_run tbl =
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, ns) :: acc)
      tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "  %-42s (no estimate)\n" name
      else begin
        Printf.printf "  %-42s %12.0f ns/run" name ns;
        (match requests_per_run with
        | Some reqs when ns > 0.0 ->
            Printf.printf "  %10.2f Mreq/s" (float_of_int reqs /. ns *. 1e3)
        | _ -> ());
        print_newline ()
      end)
    rows;
  rows

(* (group title, OLS rows) in run order, for the JSON artifact *)
let recorded : (string * (string * float) list) list ref = ref []

let run_group ?requests_per_run title test =
  Printf.printf "== %s ==\n%!" title;
  let rows = report ~requests_per_run (analyze (benchmark test)) in
  recorded := (title, rows) :: !recorded;
  print_newline ()

(* Serial/pool speedup summary for the parallel_vs_serial group.  Row
   names arrive prefixed by the group name, hence the substring match. *)
let print_speedups rows =
  let find suffix =
    List.find_map
      (fun (name, ns) ->
        let n = String.length name and s = String.length suffix in
        if n >= s && String.sub name (n - s) s = suffix && not (Float.is_nan ns)
        then Some ns
        else None)
      rows
  in
  List.iter
    (fun prefix ->
      match
        (find (prefix ^ "_serial"), find (Printf.sprintf "%s_pool%d" prefix pool_width))
      with
      | Some serial, Some pooled when pooled > 0.0 ->
          Printf.printf "  %-42s %11.2fx (pool of %d)\n"
            (prefix ^ " speedup") (serial /. pooled) pool_width
      | _ -> ())
    [ "e_suite"; "k_sweep" ]

let run_sweep_group () =
  Printf.printf
    "== engine-cell sweeps (mixed = E5/E13 grid, calib = offline k-sweep) ==\n%!";
  let rows = report ~requests_per_run:None (analyze (benchmark sweep_tests)) in
  recorded := ("run_cells vs percell", rows) :: !recorded;
  let find n arm =
    List.assoc_opt (Printf.sprintf "run_cells_vs_percell/%s_%dcells" arm n) rows
  in
  List.iter
    (fun n ->
      match (find n "calib_percell", find n "calib_run_cells") with
      | Some slow, Some fast when Float.is_finite slow && fast > 0.0 ->
          Printf.printf "  %-42s %11.2fx\n"
            (Printf.sprintf "calib: run_cells vs percell, %d cells" n)
            (slow /. fast)
      | _ -> ())
    sweep_cell_counts;
  print_newline ()

let run_parallel_group () =
  Printf.printf "== parallel vs serial (Domain_pool, %d workers) ==\n%!"
    pool_width;
  let rows = report ~requests_per_run:None (analyze (benchmark parallel_tests)) in
  recorded := ("parallel vs serial", rows) :: !recorded;
  print_speedups rows;
  print_newline ()

let run_substrate_group () =
  Printf.printf "== trace substrate (binary format, mmap, dense index) ==\n%!";
  (* force the prebuilt-file fixtures before timing starts: the lazy
     generate+write otherwise lands inside the first timed run and
     dominates a smoke-sized sample *)
  ignore (Lazy.force substrate_file);
  ignore (Lazy.force fixture_handle);
  let rows = report ~requests_per_run:None (analyze (benchmark substrate_tests)) in
  recorded := ("trace substrate", rows) :: !recorded;
  let find suffix =
    List.find_map
      (fun (name, ns) ->
        let n = String.length name and s = String.length suffix in
        if n >= s && String.sub name (n - s) s = suffix && not (Float.is_nan ns)
        then Some ns
        else None)
      rows
  in
  let ratio label num den =
    match (find num, find den) with
    | Some slow, Some fast when fast > 0.0 ->
        Printf.printf "  %-42s %11.2fx\n" label (slow /. fast)
    | _ -> ()
  in
  ratio "mmap open vs regeneration (1e6)" "/gen_zipf_1e6" "/mmap_open_1e6";
  ratio "mmap materialize vs regeneration (1e6)" "/gen_zipf_1e6"
    "/mmap_materialize_1e6";
  ratio "dense vs hashtable Index.build (20k)" "/index_build_hashtbl_20k"
    "/index_build_dense_20k";
  print_newline ()

(* The artifact records every OLS point estimate the run printed.
   Schema: {"harness","mode","unit","estimator","groups":[{"title",
   "rows":[{"name","ns_per_run"}]}]} — numbers via Obs_json.num, so a
   missing estimate serialises as null rather than NaN. *)
let write_json path =
  let module J = Ccache_obs.Obs_json in
  let row (name, ns) =
    Printf.sprintf "{\"name\":%s,\"ns_per_run\":%s}" (J.str name) (J.num ns)
  in
  let group (title, rows) =
    Printf.sprintf "{\"title\":%s,\"rows\":[%s]}" (J.str title)
      (String.concat "," (List.map row rows))
  in
  let body =
    Printf.sprintf
      "{\"harness\":\"bechamel\",\"mode\":%s,\"unit\":\"ns/run\",\"estimator\":\"ols\",\"groups\":[\n\
       %s\n\
       ]}\n"
      (J.str (if smoke then "smoke" else "full"))
      (String.concat ",\n" (List.rev_map group !recorded))
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc body);
  Printf.printf "wrote OLS estimates to %s\n" path

(* ------------------------------------------------------------------ *)
(* Baseline comparison (--baseline)                                    *)
(* ------------------------------------------------------------------ *)

(* Flatten a committed artifact back to [(name, ns_per_run)] rows; the
   group structure only matters for display. *)
let baseline_rows path =
  let module J = Ccache_obs.Obs_json in
  let doc =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "cannot read baseline: %s\n" msg;
      exit 2
  in
  match J.parse doc with
  | Error msg ->
      Printf.eprintf "cannot parse %s: %s\n" path msg;
      exit 2
  | Ok v ->
      let groups =
        match J.member "groups" v with Some (J.List gs) -> gs | _ -> []
      in
      List.concat_map
        (fun g ->
          match J.member "rows" g with
          | Some (J.List rows) ->
              List.filter_map
                (fun r ->
                  match (J.member "name" r, J.member "ns_per_run" r) with
                  | Some (J.String name), Some (J.Number ns) -> Some (name, ns)
                  | _ -> None)
                rows
          | _ -> [])
        groups

let test_name row =
  match String.index_opt row '/' with
  | Some i -> String.sub row (i + 1) (String.length row - i - 1)
  | None -> row

(* The baseline row a current row is compared with: the one with the
   same full name, else the only one with the same test name — so a
   renamed group keeps its rows comparable. *)
let baseline_match base name =
  match List.assoc_opt name base with
  | Some b -> Some (name, b)
  | None -> (
      match
        List.filter
          (fun (n, _) -> String.equal (test_name n) (test_name name))
          base
      with
      | [ row ] -> Some row
      | _ -> None)

(* Per-row delta table; returns the number of rows slower than the
   baseline by more than [threshold_pct]. *)
let compare_against_baseline path =
  let base = baseline_rows path in
  let current = List.concat_map snd (List.rev !recorded) in
  let matched = List.filter_map (fun (n, _) -> baseline_match base n) current in
  Printf.printf "== regression check vs %s (threshold +%g%%) ==\n" path
    threshold_pct;
  Printf.printf "  %-44s %14s %14s %9s\n" "name" "baseline ns" "current ns"
    "delta";
  let regressed = ref 0 in
  List.iter
    (fun (name, cur) ->
      match baseline_match base name with
      | None -> Printf.printf "  %-44s %14s %14.0f %9s\n" name "-" cur "new"
      | Some (_, b) when Float.is_finite b && b > 0.0 && Float.is_finite cur ->
          let delta = (cur -. b) /. b *. 100.0 in
          let tag =
            if delta > threshold_pct then begin
              incr regressed;
              "  REGRESSED"
            end
            else if delta < -.threshold_pct then "  improved"
            else ""
          in
          Printf.printf "  %-44s %14.0f %14.0f %+8.1f%%%s\n" name b cur delta
            tag
      | Some _ -> Printf.printf "  %-44s %14s %14.0f %9s\n" name "null" cur "-")
    current;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name matched) then
        Printf.printf "  %-44s (dropped: not measured in this run)\n" name)
    base;
  if !regressed > 0 then
    Printf.printf "%d row(s) regressed beyond +%g%%\n" !regressed threshold_pct
  else Printf.printf "no regressions beyond +%g%%\n" threshold_pct;
  !regressed

let () =
  Printf.printf
    "convex-caching benchmark harness (trace: %d requests, %d tenants%s)\n\n"
    trace_len tenants
    (if smoke then ", smoke mode" else "");
  (* Microbench groups first: a structure op costs ~100 ns, so its
     estimate is dominated by GC pressure — measured 25% higher when
     the heavy groups have already grown and fragmented the major heap
     (and 5x higher under a few hundred MB of live ballast).  The
     macro groups allocate enough per run to be insensitive to what
     ran before them. *)
  run_group "data structures" structure_tests;
  run_group "dual solver" (Test.make_grouped ~name:"dual" [ dual_solver_test ]);
  run_group "experiment regeneration (quick size, one run each)" experiment_tests;
  run_group ~requests_per_run:trace_len "policy throughput, k=64" (policy_tests ~k:64);
  run_group ~requests_per_run:trace_len "policy throughput, k=1024" (policy_tests ~k:1024);
  run_group ~requests_per_run:trace_len "ALG-DISCRETE fast vs reference" fast_vs_ref_tests;
  run_sweep_group ();
  run_parallel_group ();
  run_substrate_group ();
  Option.iter write_json json_path;
  let regressions =
    match baseline_path with
    | None -> 0
    | Some path -> compare_against_baseline path
  in
  if regressions > 0 then exit 1
