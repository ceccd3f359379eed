(* Ccache_obs: merge laws, jobs-width independence, span nesting on
   supervisor retry paths, the zero-overhead-off guarantee, and the
   golden Chrome-trace export.

   Global-state discipline: every test runs inside
   [Control.with_enabled] (or explicitly disabled) and calls
   [Metrics.reset] first, so tests are order-independent. *)

module Control = Ccache_obs.Control
module Clock = Ccache_obs.Clock
module M = Ccache_obs.Metrics
module Span = Ccache_obs.Span
module Sink = Ccache_obs.Sink
module Trace_export = Ccache_obs.Trace_export
module U = Ccache_util
module A = Ccache_analysis

let qsuite = List.map (QCheck_alcotest.to_alcotest ~long:false)

(* ------------------------------------------------------------------ *)
(* Merge laws (QCheck)                                                 *)
(* ------------------------------------------------------------------ *)

(* Snapshots are generated directly.  Float payloads are small
   integers, so the sums that [merge] computes are exact and the
   associativity law is testable with structural equality.  Gauge
   values are a function of their (domain, seq) stamp, so stamp ties
   carry equal values and the max-by-stamp resolution stays
   commutative (live shards guarantee distinct stamps per domain by
   construction; the generator mirrors that invariant). *)

let name_gen = QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "e" ]

let sorted_unique l =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b) l

let counters_gen =
  QCheck.Gen.(
    map sorted_unique
      (list_size (int_bound 5) (pair name_gen (int_range 0 1000))))

let gauge_gen =
  QCheck.Gen.(
    map
      (fun (d, s) ->
        { M.g_domain = d; g_seq = s; g_value = float_of_int ((d * 1000) + s) })
      (pair (int_bound 3) (int_bound 50)))

let gauges_gen =
  QCheck.Gen.(
    map sorted_unique (list_size (int_bound 4) (pair name_gen gauge_gen)))

let hist_bounds = [| 1.0; 2.0; 4.0 |]

let hist_gen =
  QCheck.Gen.(
    map
      (fun counts ->
        let counts = Array.of_list counts in
        let count = Array.fold_left ( + ) 0 counts in
        {
          M.bounds = hist_bounds;
          counts;
          sum = float_of_int (count * 3);
          count;
        })
      (list_repeat 4 (int_bound 20)))

let hists_gen =
  QCheck.Gen.(
    map sorted_unique (list_size (int_bound 4) (pair name_gen hist_gen)))

let snapshot_gen =
  QCheck.Gen.(
    map
      (fun ((counters, gauges), hists) -> { M.counters; gauges; hists })
      (pair (pair counters_gen gauges_gen) hists_gen))

let pp_snapshot ppf (s : M.snapshot) =
  Fmt.pf ppf "counters=%a gauges=%a hists=%a"
    Fmt.(Dump.list (Dump.pair string int))
    s.M.counters
    Fmt.(
      Dump.list
        (Dump.pair string (fun ppf g ->
             Fmt.pf ppf "(%d,%d)=%g" g.M.g_domain g.M.g_seq g.M.g_value)))
    s.M.gauges
    Fmt.(
      Dump.list
        (Dump.pair string (fun ppf h ->
             Fmt.pf ppf "%a n=%d" (Dump.array int) h.M.counts h.M.count)))
    s.M.hists

let snapshot_arb =
  QCheck.make ~print:(Fmt.str "%a" pp_snapshot) snapshot_gen

let merge_commutative =
  QCheck.Test.make ~name:"Metrics.merge is commutative" ~count:300
    QCheck.(pair snapshot_arb snapshot_arb)
    (fun (a, b) -> M.merge a b = M.merge b a)

let merge_associative =
  QCheck.Test.make ~name:"Metrics.merge is associative" ~count:300
    QCheck.(triple snapshot_arb snapshot_arb snapshot_arb)
    (fun (a, b, c) -> M.merge a (M.merge b c) = M.merge (M.merge a b) c)

let merge_identity =
  QCheck.Test.make ~name:"Metrics.empty is the merge identity" ~count:100
    snapshot_arb
    (fun a -> M.merge M.empty a = a && M.merge a M.empty = a)

let test_merge_bounds_mismatch () =
  let h b = { M.bounds = b; counts = [| 0; 0 |]; sum = 0.0; count = 0 } in
  let s b = { M.empty with M.hists = [ ("h", h b) ] } in
  Alcotest.check_raises "mismatched bounds raise"
    (Invalid_argument
       "Metrics.merge: histogram \"h\" recorded with different bucket bounds")
    (fun () -> ignore (M.merge (s [| 1.0 |]) (s [| 2.0 |])))

(* ------------------------------------------------------------------ *)
(* Jobs-width independence                                             *)
(* ------------------------------------------------------------------ *)

(* The same sweep recorded at pool widths 1 and 8 must produce the
   same *application* telemetry.  Pool self-telemetry (names under
   "pool/", and gauges generally) measures the execution schedule, not
   the computation, and is excluded by contract. *)

let app_view (s : M.snapshot) =
  let keep (name, _) = not (String.length name >= 5 && String.sub name 0 5 = "pool/") in
  (List.filter keep s.M.counters, List.filter keep s.M.hists)

let span_view spans =
  spans
  |> List.filter (fun (s : Sink.span) ->
         s.Sink.sp_cat = "sweep" || s.Sink.sp_cat = "engine")
  |> List.map (fun (s : Sink.span) -> (s.Sink.sp_cat, s.Sink.sp_name, s.Sink.sp_args))
  |> List.sort compare

let record_sweep pool =
  M.reset ();
  let trace =
    Ccache_trace.Workloads.generate ~seed:11 ~length:3000
      (Ccache_trace.Workloads.sqlvm_mix ~scale:1)
  in
  let costs =
    Array.init
      (Ccache_trace.Trace.n_users trace)
      (fun _ -> Ccache_cost.Cost_function.monomial ~beta:2.0 ())
  in
  let results =
    Ccache_sim.Sweep.run ?pool [ 8; 16; 32; 64 ] ~f:(fun k ->
        Ccache_sim.Engine.misses
          (Ccache_sim.Engine.run ~k ~costs Ccache_core.Alg_fast.policy trace))
  in
  (List.map snd results, app_view (M.snapshot ()), span_view (Span.collect ()))

let test_jobs_width_independence () =
  Control.with_enabled ~clock:(Clock.counting ()) @@ fun () ->
  let misses1, app1, spans1 = record_sweep None in
  let misses8, app8, spans8 =
    record_sweep (Some (U.Domain_pool.create ~size:8 ()))
  in
  Alcotest.(check (list int)) "results identical" misses1 misses8;
  Alcotest.(check bool) "counters+histograms identical" true (app1 = app8);
  Alcotest.(check int) "same span count" (List.length spans1) (List.length spans8);
  Alcotest.(check bool) "span structure identical" true (spans1 = spans8)

(* ------------------------------------------------------------------ *)
(* Span nesting on supervisor retry paths                              *)
(* ------------------------------------------------------------------ *)

(* With the counting clock every read is globally unique and
   monotonic, so proper nesting is checkable arithmetically: a child
   span (or instant) opens after its parent and closes before it. *)
let check_well_formed spans =
  let find_parent (s : Sink.span) p =
    List.find_opt
      (fun (q : Sink.span) ->
        q.Sink.sp_domain = s.Sink.sp_domain && q.Sink.sp_seq = p)
      spans
  in
  List.iter
    (fun (s : Sink.span) ->
      match s.Sink.sp_parent with
      | None -> ()
      | Some p -> (
          match find_parent s p with
          | None ->
              Alcotest.failf "span %s: parent seq %d missing on domain %d"
                s.Sink.sp_name p s.Sink.sp_domain
          | Some parent ->
              Alcotest.(check bool)
                (Printf.sprintf "%s nests inside %s" s.Sink.sp_name
                   parent.Sink.sp_name)
                true
                (parent.Sink.sp_seq < s.Sink.sp_seq
                && parent.Sink.sp_start < s.Sink.sp_start
                && s.Sink.sp_start +. s.Sink.sp_dur
                   < parent.Sink.sp_start +. parent.Sink.sp_dur)))
    spans

let retry_policy =
  {
    U.Supervisor.default_policy with
    U.Supervisor.max_retries = 3;
    backoff_base_s = 0.001;
  }

let run_supervised_with_faults pool =
  M.reset ();
  let fault =
    match U.Fault.of_spec "9:0.8" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let tasks =
    List.init 6 (fun i ->
        {
          U.Supervisor.id = Printf.sprintf "t%d" i;
          run =
            (fun () ->
              Span.with_ ~cat:"work" (Printf.sprintf "body%d" i) (fun () -> i));
        })
  in
  let retries = ref 0 in
  let on_event = function
    | U.Supervisor.Retrying _ -> incr retries
    | _ -> ()
  in
  let outcomes = U.Supervisor.run ?pool ~policy:retry_policy ~fault ~on_event tasks in
  (U.Supervisor.completed outcomes, !retries, Span.collect ())

let test_supervisor_retry_spans () =
  Control.with_enabled ~clock:(Clock.counting ()) @@ fun () ->
  let completed, retries, spans = run_supervised_with_faults None in
  Alcotest.(check (list int)) "all complete" [ 0; 1; 2; 3; 4; 5 ] completed;
  Alcotest.(check bool) "faults actually injected" true (retries > 0);
  check_well_formed spans;
  let attempts =
    List.length
      (List.filter
         (fun (s : Sink.span) ->
           (not s.Sink.sp_instant)
           && String.length s.Sink.sp_name >= 5
           && String.sub s.Sink.sp_name 0 5 = "task:")
         spans)
  in
  (* one span per attempt: 6 successes + one per retry *)
  Alcotest.(check int) "one span per attempt" (6 + retries) attempts;
  let retry_instants =
    List.length
      (List.filter
         (fun (s : Sink.span) -> s.Sink.sp_name = "supervisor/retry")
         spans)
  in
  Alcotest.(check int) "one instant per retry" retries retry_instants

let test_supervisor_retry_spans_pooled () =
  Control.with_enabled ~clock:(Clock.counting ()) @@ fun () ->
  let completed, _retries, spans =
    run_supervised_with_faults (Some (U.Domain_pool.create ~size:4 ()))
  in
  Alcotest.(check (list int)) "all complete" [ 0; 1; 2; 3; 4; 5 ] completed;
  check_well_formed spans

(* ------------------------------------------------------------------ *)
(* Zero overhead when off                                              *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  Control.disable ();
  M.reset ();
  M.incr "c";
  M.set_gauge "g" 1.0;
  M.observe "h" 1.0;
  Span.with_ "s" (fun () -> Span.instant "i");
  Alcotest.(check bool) "empty snapshot" true (M.snapshot () = M.empty);
  Alcotest.(check int) "no spans" 0 (List.length (Span.collect ()))

(* The tentpole guarantee: recording on/off cannot change a report
   byte.  Rendered here in-process over two suite sections; CI repeats
   the check over the full binary. *)
let test_report_bytes_off_vs_on () =
  let specs =
    match A.Suite.all with a :: b :: _ -> [ a; b ] | l -> l
  in
  let report () =
    (A.Report.run_suite_supervised ~size:A.Experiment.Quick specs).A.Report.report
  in
  Control.disable ();
  let off = report () in
  let on =
    Control.with_enabled (fun () ->
        M.reset ();
        report ())
  in
  Alcotest.(check string) "report bytes identical" off on

(* ------------------------------------------------------------------ *)
(* Golden Chrome-trace export                                          *)
(* ------------------------------------------------------------------ *)

let test_trace_export_golden () =
  let spans =
    Control.with_enabled ~clock:(Clock.counting ()) (fun () ->
        M.reset ();
        Span.with_ ~cat:"t" ~args:[ ("k", Sink.Int 1) ] "outer" (fun () ->
            Span.instant ~cat:"t" "mark";
            Span.with_ ~cat:"t" ~args:[ ("ok", Sink.Bool true) ] "inner"
              (fun () -> ()));
        Span.collect ())
  in
  let domain = (Domain.self () :> int) in
  let expected =
    Printf.sprintf
      "{\"traceEvents\":[\n\
      \  {\"name\":\"outer\",\"cat\":\"t\",\"ph\":\"X\",\"ts\":0.000,\"dur\":4000000.000,\"pid\":1,\"tid\":%d,\"args\":{\"k\":1}},\n\
      \  {\"name\":\"mark\",\"cat\":\"t\",\"ph\":\"i\",\"ts\":1000000.000,\"s\":\"t\",\"pid\":1,\"tid\":%d,\"args\":{}},\n\
      \  {\"name\":\"inner\",\"cat\":\"t\",\"ph\":\"X\",\"ts\":2000000.000,\"dur\":1000000.000,\"pid\":1,\"tid\":%d,\"args\":{\"ok\":true}}\n\
       ],\"displayTimeUnit\":\"ms\"}\n"
      domain domain domain
  in
  Alcotest.(check string) "golden trace" expected
    (Trace_export.to_json ~origin:0.0 spans)

let test_json_escaping () =
  let module J = Ccache_obs.Obs_json in
  Alcotest.(check string) "quotes and control chars" "\"a\\\"b\\\\c\\u0001\""
    (J.str "a\"b\\c\x01");
  Alcotest.(check string) "non-finite is null" "null" (J.num Float.nan);
  Alcotest.(check string) "micros fixed-point" "1500000.000" (J.micros 1.5)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ccache_obs"
    [
      ( "merge",
        Alcotest.test_case "bounds mismatch" `Quick test_merge_bounds_mismatch
        :: qsuite [ merge_commutative; merge_associative; merge_identity ] );
      ( "jobs-width",
        [
          Alcotest.test_case "1 vs 8 workers" `Quick test_jobs_width_independence;
        ] );
      ( "supervisor-spans",
        [
          Alcotest.test_case "retry path, inline" `Quick
            test_supervisor_retry_spans;
          Alcotest.test_case "retry path, pooled" `Quick
            test_supervisor_retry_spans_pooled;
        ] );
      ( "off",
        [
          Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "report bytes off vs on" `Quick
            test_report_bytes_off_vs_on;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace golden" `Quick
            test_trace_export_golden;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
        ] );
    ]
