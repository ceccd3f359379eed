(** E12 — the fractional relaxation online: BBN exponential-update
    fractional caching (the LP substrate the paper builds on, §1.3)
    vs the integral algorithms.

    Two regimes:

    - the LRU-nemesis cycle over k+1 pages, where every deterministic
      integral algorithm pays ~k times offline, while the fractional
      algorithm pays only ~H_k ≈ ln k — the classical integrality-of-
      determinism gap;
    - weighted multi-tenant Zipf, where the fractional cost
      lower-bounds what any determinisation of the same scheme could
      achieve. *)

module Tbl = Ccache_util.Ascii_table
module Engine = Ccache_sim.Engine
module Frac = Ccache_core.Alg_fractional
module Cf = Ccache_cost.Cost_function

let run size =
  let ks, length =
    match size with
    | Experiment.Quick -> ([ 8; 16 ], 2000)
    | Experiment.Full -> ([ 8; 16; 32; 64 ], 8000)
  in
  (* --- regime 1: the cycle nemesis --- *)
  let nemesis =
    Tbl.create
      ~title:"E12a: cycle over k+1 pages — fractional escapes the deterministic k"
      ~aligns:[ Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "k"; "offline"; "fractional"; "lru"; "alg-discrete"; "frac/off"; "ln k + 1" ]
  in
  (* Each k has its own k+1-cycle trace; the two integral policies
     replay it as two cells. *)
  let nemesis_costs = [| Cf.linear ~slope:1.0 () |] in
  let nemesis_traces =
    List.map
      (fun k ->
        ( k,
          Ccache_trace.Workloads.generate ~seed:121 ~length
            (Ccache_trace.Workloads.lru_nemesis ~k) ))
      ks
  in
  let nemesis_results =
    Ccache_sim.Sweep.run_cells
      (List.concat_map
         (fun (k, trace) ->
           [
             Ccache_sim.Sweep.cell ~k ~costs:nemesis_costs
               Ccache_policies.Lru.policy trace;
             Ccache_sim.Sweep.cell ~k ~costs:nemesis_costs
               Ccache_core.Alg_discrete.policy trace;
           ])
         nemesis_traces)
  in
  List.iter2
    (fun (k, trace) pair ->
      let lru, alg =
        match pair with [ a; b ] -> (a, b) | _ -> assert false
      in
      let costs = nemesis_costs in
      let offline =
        Ccache_offline.Best_of.compute ~local_search_rounds:0 ~cache_size:k
          ~costs trace
      in
      let frac = Frac.run ~k ~costs trace in
      let cost r = Ccache_sim.Metrics.total_cost ~costs r in
      Tbl.add_row nemesis
        [
          Tbl.cell_int k;
          Tbl.cell_float ~digits:6 offline.Ccache_offline.Best_of.cost;
          Tbl.cell_float ~digits:6 frac.Frac.movement_cost;
          Tbl.cell_float ~digits:6 (cost lru);
          Tbl.cell_float ~digits:6 (cost alg);
          Tbl.cell_ratio
            (frac.Frac.movement_cost /. offline.Ccache_offline.Best_of.cost);
          Tbl.cell_float ~digits:3 (log (float_of_int k) +. 1.0);
        ])
    nemesis_traces
    (Ccache_sim.Sweep.rows ~width:2 nemesis_results);
  (* --- regime 2: weighted multi-tenant --- *)
  let weighted =
    Tbl.create
      ~title:"E12b: weighted zipf tenants (w = 1,2,4,8) — fractional vs integral"
      ~aligns:[ Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "k"; "offline"; "fractional"; "alg-discrete"; "landlord" ]
  in
  (* The weighted trace does not depend on k — hoist it so every
     (k, policy) cell shares one scan. *)
  let wtrace =
    Ccache_trace.Workloads.generate ~seed:122 ~length
      (Ccache_trace.Workloads.symmetric_zipf ~tenants:4 ~pages_per_tenant:40
         ~skew:0.8)
  in
  let wcosts = Scenarios.weighted_costs 4 in
  let weighted_results =
    Ccache_sim.Sweep.run_cells
      (List.concat_map
         (fun k ->
           [
             Ccache_sim.Sweep.cell ~k ~costs:wcosts
               Ccache_core.Alg_discrete.policy wtrace;
             Ccache_sim.Sweep.cell ~k ~costs:wcosts
               Ccache_policies.Landlord.adaptive wtrace;
           ])
         ks)
  in
  List.iter2
    (fun k pair ->
      let alg, ll =
        match pair with [ a; b ] -> (a, b) | _ -> assert false
      in
      let costs = wcosts in
      let offline =
        Ccache_offline.Best_of.compute ~local_search_rounds:0 ~cache_size:k
          ~costs wtrace
      in
      let frac = Frac.run ~k ~costs wtrace in
      let cost r = Ccache_sim.Metrics.total_cost ~costs r in
      Tbl.add_row weighted
        [
          Tbl.cell_int k;
          Tbl.cell_float ~digits:6 offline.Ccache_offline.Best_of.cost;
          Tbl.cell_float ~digits:6 frac.Frac.movement_cost;
          Tbl.cell_float ~digits:6 (cost alg);
          Tbl.cell_float ~digits:6 (cost ll);
        ])
    ks
    (Ccache_sim.Sweep.rows ~width:2 weighted_results);
  Experiment.output ~id:"e12" ~title:"Fractional relaxation online (BBN substrate)"
    ~notes:
      [
        "on the cycle nemesis the fractional ratio stays near ln k + 1 while \
         every deterministic integral policy (LRU, ALG-DISCRETE alike) pays \
         the full factor ~k — the randomization/integrality gap the paper's \
         Section 1.3 alludes to via [3]";
        "on the weighted workloads the online fractional scheme tracks the \
         integral algorithms closely (it is an online algorithm itself, not \
         the fractional optimum, so it need not sit below them)";
      ]
    [ nemesis; weighted ]

let spec =
  {
    Experiment.id = "e12";
    title = "Fractional relaxation online (BBN substrate)";
    claim = "Section 1.3: the BBN LP substrate; fractional beats the deterministic k barrier";
    run;
  }
