(** E2 — Corollary 1.2: with f_i(x) = x^beta the algorithm is
    beta^beta k^beta competitive.

    Sweeps beta and k; reports the measured ratio as a bracket
    [online/best-of, online/dual-LB] next to the corollary's bound.
    The bracket's upper end must stay below the bound, and ratios drift
    upward with k on a fixed workload family. *)

module Tbl = Ccache_util.Ascii_table
module Engine = Ccache_sim.Engine
module Theory = Ccache_core.Theory

let run size =
  let length, ks, betas, dual_iters =
    match size with
    | Experiment.Quick -> (800, [ 8; 16 ], [ 1.0; 2.0 ], 60)
    | Experiment.Full -> (3000, [ 4; 8; 16; 32 ], [ 1.0; 2.0; 3.0 ], 150)
  in
  let table =
    Tbl.create
      ~title:"E2: Corollary 1.2 (f = x^beta): measured ratio bracket vs beta^beta k^beta"
      ~aligns:[ Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Left ]
      [ "beta"; "k"; "ALG cost"; "offline<="; "dual-LB>="; "ratio-bracket"; "bound"; "holds" ]
  in
  let violations = ref 0 in
  (* The two-tenant trace depends only on (seed, length, pages) — beta
     enters through the costs alone — so one materialization serves the
     whole (beta, k) grid.  Identical rows to the old per-cell scenario
     rebuilds. *)
  let trace =
    (Scenarios.two_tenant_monomial ~seed:21 ~length ~beta:(List.hd betas)
       ~pages:64)
      .Scenarios.trace
  in
  let points =
    List.concat_map
      (fun beta ->
        let costs = Scenarios.monomial_costs ~beta 2 in
        List.map (fun k -> (beta, k, costs)) ks)
      betas
  in
  let results =
    Ccache_sim.Sweep.run_cells
      (List.map
         (fun (_, k, costs) ->
           Ccache_sim.Sweep.cell ~k ~costs Ccache_core.Alg_discrete.policy trace)
         points)
  in
  List.iter2
    (fun (beta, k, costs) r ->
      let offline =
        Ccache_offline.Best_of.compute ~local_search_rounds:0 ~cache_size:k
          ~costs trace
      in
      let dual_lb =
        Ccache_cp.Dual_solver.lower_bound
          ~options:{ Ccache_cp.Dual_solver.default_options with iterations = dual_iters }
          ~k ~costs trace
      in
      let check =
        Theory.check_thm11 ~alpha:beta ~costs ~k ~a:r.Engine.misses_per_user
          ~b:offline.Ccache_offline.Best_of.misses_per_user ()
      in
      let bound = Theory.cor12_bound ~beta ~k in
      let br =
        Competitive.bracket
          ~offline_lower:dual_lb
          ~online_cost:check.Theory.lhs
          ~offline_upper:offline.Ccache_offline.Best_of.cost ()
      in
      if not check.Theory.holds then incr violations;
      Tbl.add_row table
        [
          Tbl.cell_float ~digits:2 beta;
          Tbl.cell_int k;
          Tbl.cell_float ~digits:6 check.Theory.lhs;
          Tbl.cell_float ~digits:6 offline.Ccache_offline.Best_of.cost;
          Tbl.cell_float ~digits:6 dual_lb;
          Fmt.str "%a" Competitive.pp_bracket br;
          Tbl.cell_float ~digits:4 bound;
          (if check.Theory.holds then "yes" else "VIOLATED");
        ])
    points results;
  Experiment.output ~id:"e2" ~title:"Corollary 1.2 monomial-cost sweep"
    ~notes:
      [
        Printf.sprintf "violations: %d (corollary requires 0)" !violations;
        "the bracket upper end (vs the dual lower bound) stays orders of \
         magnitude below the worst-case beta^beta k^beta on these workloads";
      ]
    [ table ]

let spec =
  {
    Experiment.id = "e2";
    title = "Corollary 1.2 monomial-cost sweep";
    claim = "Cor 1.2: algorithm is beta^beta k^beta-competitive for x^beta";
    run;
  }
