(** E8 — relaxation quality of (CP): on instances small enough for the
    exact Pareto DP, verify and report the sandwich

      dual lower bound <= DP optimum <= rounded fractional <= best-of

    (each inequality is a soundness requirement for the OPT bracketing
    used everywhere else; the gaps quantify tightness).  The dual
    bound prices evictions on the flushed program, so it is compared
    against the DP optimum computed on the same flushed accounting. *)

module Tbl = Ccache_util.Ascii_table
module DS = Ccache_cp.Dual_solver
module F = Ccache_cp.Formulation

let run size =
  let instances, dual_iters =
    match size with
    | Experiment.Quick ->
        ([ (1, 2, 4, 24, 3); (2, 3, 3, 24, 4) ], 120)
    | Experiment.Full ->
        ([ (1, 2, 4, 36, 3); (2, 3, 3, 36, 4); (3, 2, 6, 40, 5); (4, 3, 4, 40, 6) ], 400)
  in
  let table =
    Tbl.create
      ~title:"E8: (CP) relaxation sandwich on tiny instances (eviction accounting, flushed)"
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Left ]
      [ "instance"; "dual LB"; "DP OPT"; "rounded"; "best-of"; "sound" ]
  in
  let unsound = ref 0 in
  List.iter
    (fun (seed, tenants, pages, length, k) ->
      let s = Scenarios.tiny ~seed ~tenants ~pages_per_tenant:pages ~length in
      let costs = s.Scenarios.costs in
      let cp = F.of_trace ~flush:true ~cache_size:k ~costs s.Scenarios.trace in
      let sol = DS.solve ~iterations:dual_iters cp in
      let dual_lb = sol.DS.bound in
      (* DP on the same accounting: flushed trace makes misses =
         evictions for real users, so DP misses match (ICP) cost *)
      let flushed = Ccache_trace.Trace.with_flush ~k s.Scenarios.trace in
      let dp =
        let costs_flushed =
          Array.append costs [| Ccache_cost.Cost_function.linear ~slope:0.0 () |]
        in
        (* flush pages are pinned, exactly as (CP) fixes their x to 0 *)
        Ccache_offline.Dp_opt.solve
          ~pinned:(fun p -> Ccache_trace.Page.user p >= tenants)
          ~cache_size:k ~costs:costs_flushed flushed
      in
      let { Ccache_cp.Lagrangian.x_star; _ } =
        Ccache_cp.Lagrangian.eval cp ~y:sol.DS.best_y
      in
      let rounded = Ccache_cp.Rounding.round cp ~x:x_star in
      let best =
        Ccache_offline.Best_of.compute ~local_search_rounds:20 ~exact_dp:false
          ~cache_size:k ~costs s.Scenarios.trace
      in
      let tol = 1e-6 in
      let sound =
        dual_lb <= dp.Ccache_offline.Dp_opt.cost +. tol
        && dp.Ccache_offline.Dp_opt.cost
           <= rounded.Ccache_cp.Rounding.cost_by_evictions +. tol
      in
      if not sound then incr unsound;
      Tbl.add_row table
        [
          s.Scenarios.name ^ Printf.sprintf "/k=%d" k;
          Tbl.cell_float ~digits:5 dual_lb;
          Tbl.cell_float ~digits:5 dp.Ccache_offline.Dp_opt.cost;
          Tbl.cell_float ~digits:5 rounded.Ccache_cp.Rounding.cost_by_evictions;
          Tbl.cell_float ~digits:5 best.Ccache_offline.Best_of.cost;
          (if sound then "yes" else "VIOLATED");
        ])
    instances;
  Experiment.output ~id:"e8" ~title:"(CP) relaxation gap"
    ~notes:
      [
        Printf.sprintf "sandwich violations: %d (soundness requires 0)" !unsound;
        "best-of is evaluated on the unflushed (miss) accounting and so can \
         sit above or below the eviction-accounting columns; the binding \
         soundness chain is dual-LB <= DP-OPT <= rounded";
      ]
    [ table ]

let spec =
  {
    Experiment.id = "e8";
    title = "(CP) relaxation gap";
    claim = "CP relaxation: weak duality and integrality gap are small on tiny instances";
    run;
  }
