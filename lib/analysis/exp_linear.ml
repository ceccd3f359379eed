(** E6 — the linear special case: with f_i(x) = w_i x the model is
    weighted caching, alpha = 1, and Theorem 1.1 reduces to the
    classical k-competitive guarantee.

    Compares ALG-DISCRETE against Landlord (deterministic weighted
    caching) and LRU across k; verifies cost(ALG) <= k * offline cost
    (the alpha = 1 instantiation of the theorem, with linearity pulling
    the factor out of f). *)

module Tbl = Ccache_util.Ascii_table
module Engine = Ccache_sim.Engine
module Metrics = Ccache_sim.Metrics
module Theory = Ccache_core.Theory

let run size =
  let length, ks =
    match size with
    | Experiment.Quick -> (1500, [ 16 ])
    | Experiment.Full -> (6000, [ 8; 16; 32; 64 ])
  in
  let specs =
    Ccache_trace.Workloads.symmetric_zipf ~tenants:4 ~pages_per_tenant:48 ~skew:0.8
  in
  let trace = Ccache_trace.Workloads.generate ~seed:61 ~length specs in
  let costs = Scenarios.weighted_costs 4 in
  let table =
    Tbl.create
      ~title:"E6: linear costs w_i in {1,2,4,8} — weighted-caching reduction"
      ~aligns:[ Tbl.Right; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Left ]
      [ "k"; "policy"; "cost"; "offline cost"; "k*offline"; "<= k-competitive" ]
  in
  let violations = ref 0 in
  let policies =
    [
      Ccache_core.Alg_discrete.policy;
      Ccache_policies.Landlord.adaptive;
      Ccache_policies.Landlord.static;
      Ccache_policies.Lru.policy;
    ]
  in
  (* All (k, policy) cells replay the one weighted-Zipf trace. *)
  let results =
    Ccache_sim.Sweep.run_cells
      (List.concat_map
         (fun k -> List.map (fun p -> Ccache_sim.Sweep.cell ~k ~costs p trace) policies)
         ks)
  in
  List.iter2
    (fun k results ->
      let offline =
        Ccache_offline.Best_of.compute ~local_search_rounds:0 ~cache_size:k ~costs
          trace
      in
      List.iter2
        (fun policy r ->
          let cost = Metrics.total_cost ~costs r in
          let bound = float_of_int k *. offline.Ccache_offline.Best_of.cost in
          let is_alg =
            Ccache_sim.Policy.name policy = "alg-discrete"
          in
          let holds = cost <= bound +. 1e-9 in
          if is_alg && not holds then incr violations;
          Tbl.add_row table
            [
              Tbl.cell_int k;
              Ccache_sim.Policy.name policy;
              Tbl.cell_float ~digits:6 cost;
              Tbl.cell_float ~digits:6 offline.Ccache_offline.Best_of.cost;
              Tbl.cell_float ~digits:6 bound;
              (if holds then "yes" else if is_alg then "VIOLATED" else "no (baseline)");
            ])
        policies results)
    ks
    (Ccache_sim.Sweep.rows ~width:(List.length policies) results);
  (* alpha sanity: linear costs have alpha exactly 1 *)
  let alpha = Theory.alpha_of_costs costs in
  Experiment.output ~id:"e6" ~title:"Linear-cost reduction to weighted caching"
    ~notes:
      [
        Printf.sprintf "alpha(linear costs) = %g (theory: 1)" alpha;
        Printf.sprintf "k-competitiveness violations for alg-discrete: %d" !violations;
        "alg-discrete and landlord-adaptive track each other closely under \
         linear costs, as the theory predicts for the weighted special case";
      ]
    [ table ]

let spec =
  {
    Experiment.id = "e6";
    title = "Linear-cost reduction to weighted caching";
    claim = "linear f_i => alpha = 1 => classical k-competitive weighted caching";
    run;
  }
