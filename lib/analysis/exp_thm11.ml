(** E1 — Theorem 1.1: the primal-dual algorithm's cost is at most
    sum_i f_i(alpha * k * b_i) for offline miss counts b.

    Runs ALG-DISCRETE and the best-of-offline suite over a grid of
    workloads and cache sizes with mixed convex costs, and evaluates
    both sides of the inequality.  The theorem must hold on every row
    (it is checked against a feasible offline schedule, which only
    weakens the RHS — see Theory.check_thm11). *)

module Tbl = Ccache_util.Ascii_table
module Engine = Ccache_sim.Engine
module Theory = Ccache_core.Theory

let run size =
  let lengths, ks =
    match size with
    | Experiment.Quick -> (1500, [ 16; 48 ])
    | Experiment.Full -> (6000, [ 8; 16; 32; 64; 128 ])
  in
  let scenarios =
    [
      Scenarios.zipf ~seed:11 ~length:lengths ~tenants:2 ~pages:80 ~skew:0.9;
      Scenarios.zipf ~seed:12 ~length:lengths ~tenants:4 ~pages:60 ~skew:0.7;
      Scenarios.sqlvm ~seed:13 ~length:lengths ~scale:1;
      Scenarios.churn ~seed:14 ~length:lengths;
    ]
  in
  let table =
    Tbl.create
      ~title:"E1: Theorem 1.1 bound check (alpha from costs; b = best-of offline)"
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Left ]
      [ "workload"; "k"; "alpha"; "ALG cost"; "offline cost"; "Thm1.1 RHS"; "holds" ]
  in
  let violations = ref 0 in
  (* One engine cell per (workload, k); each workload's offline cells
     share one trace index across its ks. *)
  let points =
    List.concat_map (fun s -> List.map (fun k -> (s, k)) ks) scenarios
  in
  let results =
    Ccache_sim.Sweep.run_cells
      (List.map
         (fun ((s : Scenarios.t), k) ->
           Ccache_sim.Sweep.cell ~k ~costs:s.Scenarios.costs
             Ccache_core.Alg_discrete.policy s.Scenarios.trace)
         points)
  in
  List.iter2
    (fun ((s : Scenarios.t), k) r ->
      let costs = s.Scenarios.costs in
      let offline =
        Ccache_offline.Best_of.compute
          ~local_search_rounds:(match size with Experiment.Quick -> 0 | Experiment.Full -> 30)
          ~cache_size:k ~costs s.Scenarios.trace
      in
      let alpha = Theory.alpha_of_costs ~max_x:1e6 costs in
      let check =
        Theory.check_thm11 ~alpha ~costs ~k ~a:r.Engine.misses_per_user
          ~b:offline.Ccache_offline.Best_of.misses_per_user ()
      in
      if not check.Theory.holds then incr violations;
      Tbl.add_row table
        [
          s.Scenarios.name;
          Tbl.cell_int k;
          Tbl.cell_float ~digits:3 alpha;
          Tbl.cell_float ~digits:6 check.Theory.lhs;
          Tbl.cell_float ~digits:6 offline.Ccache_offline.Best_of.cost;
          Tbl.cell_float ~digits:6 check.Theory.rhs;
          (if check.Theory.holds then "yes" else "VIOLATED");
        ])
    points results;
  Experiment.output ~id:"e1" ~title:"Theorem 1.1 bound verification"
    ~notes:
      [
        Printf.sprintf "violations: %d (theorem requires 0)" !violations;
        "measured cost sits far below the worst-case RHS on benign workloads, \
         as expected of a worst-case bound";
      ]
    [ table ]

let spec =
  {
    Experiment.id = "e1";
    title = "Theorem 1.1 bound verification";
    claim = "Thm 1.1: sum f_i(a_i) <= sum f_i(alpha k b_i)";
    run;
  }
