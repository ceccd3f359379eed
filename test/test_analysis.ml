(* Tests for ccache_analysis: scenarios, competitive bracketing, the
   experiment registry, and a full Quick run of every experiment
   (asserting the claims encoded in the notes, not just "it ran"). *)

module A = Ccache_analysis
module Cf = Ccache_cost.Cost_function

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

let test_scenarios_build () =
  let s = A.Scenarios.zipf ~seed:1 ~length:100 ~tenants:3 ~pages:10 ~skew:0.5 in
  checki "trace length" 100 (Ccache_trace.Trace.length s.A.Scenarios.trace);
  checki "costs per tenant" 3 (Array.length s.A.Scenarios.costs);
  let q = A.Scenarios.sqlvm ~seed:2 ~length:50 ~scale:1 in
  checki "sqlvm has 5 tenants" 5 (Array.length q.A.Scenarios.costs)

let test_scenarios_cost_builders () =
  let m = A.Scenarios.monomial_costs ~beta:2.0 3 in
  Array.iter (fun f -> checkf "alpha 2" 2.0 (Cf.alpha f)) m;
  let w = A.Scenarios.weighted_costs 3 in
  checkf "weights double" 4.0 (Cf.eval w.(2) 1.0);
  let mixed = A.Scenarios.mixed_costs 6 in
  checki "six costs" 6 (Array.length mixed)

(* ------------------------------------------------------------------ *)
(* Competitive bracketing                                              *)
(* ------------------------------------------------------------------ *)

let test_bracket () =
  let b =
    A.Competitive.bracket ~offline_lower:5.0 ~online_cost:20.0 ~offline_upper:10.0 ()
  in
  checkf "vs upper" 2.0 b.A.Competitive.ratio_vs_upper;
  checkb "vs lower" true (b.A.Competitive.ratio_vs_lower = Some 4.0);
  (* true ratio in [2, 4] *)
  checkb "ordering" true
    (b.A.Competitive.ratio_vs_upper
    <= Option.get b.A.Competitive.ratio_vs_lower);
  let nb = A.Competitive.bracket ~online_cost:1.0 ~offline_upper:0.0 () in
  checkb "zero offline -> infinite" true (nb.A.Competitive.ratio_vs_upper = infinity)

let test_cost_of () =
  let costs = [| Cf.monomial ~beta:2.0 (); Cf.linear ~slope:2.0 () |] in
  checkf "sum" 13.0 (Cf.total costs [| 3; 2 |])

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

let test_certificate_soundness () =
  (* the certified lower bound must not exceed any feasible offline
     schedule's cost, and the certified ratio must be >= the ratio
     against best-of *)
  let s = A.Scenarios.two_tenant_monomial ~seed:5 ~length:400 ~beta:2.0 ~pages:24 in
  let costs = s.A.Scenarios.costs in
  let k = 8 in
  let c = A.Certificate.certify ~ascent_iterations:40 ~k ~costs s.A.Scenarios.trace in
  let off =
    Ccache_offline.Best_of.compute ~local_search_rounds:0 ~cache_size:k ~costs
      s.A.Scenarios.trace
  in
  checkb "bound <= best-of cost" true
    (c.A.Certificate.improved_bound <= off.Ccache_offline.Best_of.cost +. 1e-6);
  checkb "bound non-negative" true (c.A.Certificate.improved_bound >= 0.0);
  checkb "improvement monotone" true
    (c.A.Certificate.improved_bound >= c.A.Certificate.scaled_bound -. 1e-9
    && c.A.Certificate.scaled_bound >= c.A.Certificate.raw_bound -. 1e-9);
  checkb "certified ratio finite and >= 1-ish" true
    (c.A.Certificate.certified_ratio > 0.5)

let test_certificate_no_ascent () =
  let s = A.Scenarios.zipf ~seed:6 ~length:300 ~tenants:2 ~pages:20 ~skew:0.7 in
  let c =
    A.Certificate.certify ~ascent_iterations:0 ~k:6 ~costs:s.A.Scenarios.costs
      s.A.Scenarios.trace
  in
  checkb "no-ascent uses scaled bound" true
    (c.A.Certificate.improved_bound = Float.max 0.0 c.A.Certificate.scaled_bound)

(* A run that costs nothing certifies ratio 1, not [infinity], even
   though its bound is 0 too: an empty trace, and one whose tenant's
   misses are free. *)
let test_certificate_zero_cost () =
  let module Trace = Ccache_trace.Trace in
  let free = [| Cf.linear ~slope:0.0 () |] in
  let trace =
    Trace.of_list ~n_users:1
      (List.init 40 (fun i -> Ccache_trace.Page.make ~user:0 ~id:(i mod 11)))
  in
  List.iter
    (fun (name, trace) ->
      let c = A.Certificate.certify ~k:4 ~costs:free trace in
      checkb (name ^ ": costs nothing") true (c.A.Certificate.online_cost <= 0.0);
      checkb (name ^ ": certifies ratio 1") true
        (Float.equal c.A.Certificate.certified_ratio 1.0))
    [ ("empty trace", Trace.of_list ~n_users:1 []); ("free misses", trace) ]

(* ------------------------------------------------------------------ *)
(* Suite registry                                                      *)
(* ------------------------------------------------------------------ *)

let test_suite_registry () =
  checki "fifteen experiments" 15 (List.length A.Suite.all);
  checkb "ids e1..e15" true
    (A.Suite.ids
    = [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11"; "e12"; "e13"; "e14"; "e15" ]);
  checkb "find works" true (A.Suite.find "e4" <> None);
  checkb "find missing" true (A.Suite.find "e99" = None)

(* ------------------------------------------------------------------ *)
(* Experiments: run Quick and assert their encoded claims              *)
(* ------------------------------------------------------------------ *)

let run_quick id =
  match A.Suite.find id with
  | Some e -> e.A.Experiment.run A.Experiment.Quick
  | None -> Alcotest.fail ("unknown experiment " ^ id)

let note_mentions out needle =
  List.exists
    (fun note ->
      let nl = String.length needle and hl = String.length note in
      let rec go i = i + nl <= hl && (String.sub note i nl = needle || go (i + 1)) in
      go 0)
    out.A.Experiment.notes

let test_e1_no_violations () =
  let out = run_quick "e1" in
  checkb "zero violations" true (note_mentions out "violations: 0");
  checkb "has table" true (out.A.Experiment.tables <> [])

let test_e2_no_violations () =
  let out = run_quick "e2" in
  checkb "zero violations" true (note_mentions out "violations: 0")

let test_e3_no_violations () =
  let out = run_quick "e3" in
  checkb "zero violations" true (note_mentions out "violations: 0")

let test_e4_runs () =
  let out = run_quick "e4" in
  checki "two tables" 2 (List.length out.A.Experiment.tables)

let test_e5_runs () =
  let out = run_quick "e5" in
  checkb "one table per k" true (List.length out.A.Experiment.tables >= 1)

let test_e6_no_violations () =
  let out = run_quick "e6" in
  checkb "alpha = 1" true (note_mentions out "alpha(linear costs) = 1");
  checkb "zero violations" true (note_mentions out "violations for alg-discrete: 0")

let test_e7_no_failures () =
  let out = run_quick "e7" in
  checkb "invariants clean" true (note_mentions out "invariant failures: 0");
  checkb "claim 2.3 clean" true (note_mentions out "Claim 2.3 failures: 0")

let test_e8_sound () =
  let out = run_quick "e8" in
  checkb "sandwich sound" true (note_mentions out "violations: 0")

let test_e9_fast_matches () =
  let out = run_quick "e9" in
  checkb "fast = reference" true (note_mentions out "identical miss vectors): true")

let test_e10_runs () =
  let out = run_quick "e10" in
  checkb "has table" true (out.A.Experiment.tables <> [])

let test_e11_sound () =
  let out = run_quick "e11" in
  checkb "ordering sound" true (note_mentions out "violations (certified < best-of ratio): 0")

let test_e12_runs () =
  let out = run_quick "e12" in
  checki "two regimes" 2 (List.length out.A.Experiment.tables)

let test_e13_smooth_regime () =
  let out = run_quick "e13" in
  checkb "cost-aware wins smooth regime" true
    (note_mentions out "smooth-convex regime: best online policy cost-aware on every k: true")

let test_e14_runs () =
  let out = run_quick "e14" in
  (* the documented honest negative: reset does not win *)
  checkb "reset outcome as documented" true
    (note_mentions out "objective: false (expected false")

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)
(* ------------------------------------------------------------------ *)

let test_report_renders_both_formats () =
  let out = run_quick "e3" in
  let text = A.Report.render_output A.Report.Text out in
  let md = A.Report.render_output A.Report.Markdown out in
  checkb "text non-empty" true (String.length text > 0);
  checkb "markdown headed" true (String.length md > 2 && String.sub md 0 2 = "##")

let () =
  Alcotest.run "ccache_analysis"
    [
      ( "scenarios",
        [
          Alcotest.test_case "build" `Quick test_scenarios_build;
          Alcotest.test_case "cost builders" `Quick test_scenarios_cost_builders;
        ] );
      ( "competitive",
        [
          Alcotest.test_case "bracket" `Quick test_bracket;
          Alcotest.test_case "cost_of" `Quick test_cost_of;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "soundness" `Quick test_certificate_soundness;
          Alcotest.test_case "no ascent" `Quick test_certificate_no_ascent;
          Alcotest.test_case "zero cost certifies 1" `Quick test_certificate_zero_cost;
        ] );
      ("suite", [ Alcotest.test_case "registry" `Quick test_suite_registry ]);
      ( "experiments",
        [
          Alcotest.test_case "e1 thm1.1 holds" `Quick test_e1_no_violations;
          Alcotest.test_case "e2 cor1.2 holds" `Quick test_e2_no_violations;
          Alcotest.test_case "e3 thm1.3 holds" `Quick test_e3_no_violations;
          Alcotest.test_case "e4 lower bound" `Quick test_e4_runs;
          Alcotest.test_case "e5 sla baselines" `Quick test_e5_runs;
          Alcotest.test_case "e6 linear reduction" `Quick test_e6_no_violations;
          Alcotest.test_case "e7 invariants" `Quick test_e7_no_failures;
          Alcotest.test_case "e8 cp sandwich" `Quick test_e8_sound;
          Alcotest.test_case "e9 ablations" `Quick test_e9_fast_matches;
          Alcotest.test_case "e10 multipool" `Quick test_e10_runs;
          Alcotest.test_case "e11 certificates" `Quick test_e11_sound;
          Alcotest.test_case "e12 fractional" `Quick test_e12_runs;
          Alcotest.test_case "e13 dbsim regimes" `Quick test_e13_smooth_regime;
          Alcotest.test_case "e14 windowed SLAs" `Quick test_e14_runs;
        ] );
      ("report", [ Alcotest.test_case "render formats" `Quick test_report_renders_both_formats ]);
    ]
