(** E9 — ablations of the design decisions (DESIGN.md Section 3):

    - drop the same-owner marginal bump ([no-bump]);
    - drop the uniform budget decay ([no-subtract] = greedy marginal);
    - analytic derivative instead of discrete marginal;
    - fast (offset-decomposed) vs reference implementation —
      equal costs expected, and with integer-valued costs equal
      victim-for-victim (the property tests enforce the latter).

    Each variant still runs, but only the full rule set carries the
    paper's guarantee; the table shows what each rule buys. *)

module Tbl = Ccache_util.Ascii_table
module Engine = Ccache_sim.Engine
module Metrics = Ccache_sim.Metrics
module Alg = Ccache_core.Alg_discrete

let run size =
  let length, ks =
    match size with
    | Experiment.Quick -> (2000, [ 32 ])
    | Experiment.Full -> (8000, [ 32; 96 ])
  in
  let s = Scenarios.zipf ~seed:91 ~length ~tenants:4 ~pages:64 ~skew:0.9 in
  let monomial = Scenarios.monomial_costs ~beta:2.0 4 in
  let variants =
    [
      Alg.policy;
      Alg.analytic;
      Alg.no_bump;
      Alg.no_subtract;
      Ccache_core.Alg_fast.policy;
    ]
  in
  (* One batch of cells covers the ablation grid AND the fast-vs-reference
     agreement re-runs (two extra cells per k, matching the old
     recomputation exactly). *)
  let grid_cells =
    List.concat_map
      (fun k ->
        List.map
          (fun p -> Ccache_sim.Sweep.cell ~k ~costs:monomial p s.Scenarios.trace)
          variants)
      ks
  in
  let agree_cells =
    List.concat_map
      (fun k ->
        [
          Ccache_sim.Sweep.cell ~k ~costs:monomial Alg.policy s.Scenarios.trace;
          Ccache_sim.Sweep.cell ~k ~costs:monomial Ccache_core.Alg_fast.policy
            s.Scenarios.trace;
        ])
      ks
  in
  let all_results = Ccache_sim.Sweep.run_cells (grid_cells @ agree_cells) in
  let n_grid = List.length grid_cells in
  let grid_results = List.filteri (fun i _ -> i < n_grid) all_results in
  let agree_results = List.filteri (fun i _ -> i >= n_grid) all_results in
  let tables =
    List.map2
      (fun k results ->
        Metrics.comparison_table
          ~title:
            (Printf.sprintf "E9: ALG-DISCRETE ablations, %s, x^2 costs, k=%d"
               s.Scenarios.name k)
          ~costs:monomial results)
      ks
      (Ccache_sim.Sweep.rows ~width:(List.length variants) grid_results)
  in
  (* fast = reference cost identity *)
  let agree =
    List.for_all
      (fun pair ->
        match pair with
        | [ a; b ] -> a.Engine.misses_per_user = b.Engine.misses_per_user
        | _ -> assert false)
      (Ccache_sim.Sweep.rows ~width:2 agree_results)
  in
  Experiment.output ~id:"e9" ~title:"ALG-DISCRETE ablations"
    ~notes:
      [
        Printf.sprintf "fast = reference (identical miss vectors): %b" agree;
        "no-subtract (pure greedy marginal) loses the recency signal and \
         degrades most; no-bump weakens inter-page coupling within a user; \
         analytic vs discrete marginals differ marginally on smooth costs";
      ]
    tables

let spec =
  {
    Experiment.id = "e9";
    title = "ALG-DISCRETE ablations";
    claim = "design decisions 1-3 of DESIGN.md: each update rule is load-bearing";
    run;
  }
