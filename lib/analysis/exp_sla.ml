(** E5 — the motivating claim of Section 1.1: under non-linear SLA
    refund curves, cost-aware eviction beats cost-blind policies even
    when it takes *more* raw misses.

    SQLVM-style multi-tenant mix with hinge/tiered refund costs; every
    policy in the registry plus the paper's algorithm, one comparison
    table per cache size. *)

module Tbl = Ccache_util.Ascii_table
module Engine = Ccache_sim.Engine
module Metrics = Ccache_sim.Metrics

let run size =
  let length, scale, ks =
    match size with
    | Experiment.Quick -> (2500, 1, [ 48 ])
    | Experiment.Full -> (12000, 2, [ 64; 160; 320 ])
  in
  let s = Scenarios.sqlvm ~seed:51 ~length ~scale in
  let costs = s.Scenarios.costs in
  let policies =
    Ccache_policies.Registry.all
    @ [ Ccache_core.Alg_discrete.policy; Ccache_core.Alg_fast.policy ]
  in
  (* The whole (k, policy) grid shares one trace: one batch of
     |ks| * |policies| engine cells over it. *)
  let results =
    Ccache_sim.Sweep.run_cells
      (List.concat_map
         (fun k ->
           List.map
             (fun p -> Ccache_sim.Sweep.cell ~k ~costs p s.Scenarios.trace)
             policies)
         ks)
  in
  let tables =
    List.map2
      (fun k results ->
        Metrics.comparison_table
          ~title:(Printf.sprintf "E5: SLA workload %s, k=%d" s.Scenarios.name k)
          ~costs results)
      ks
      (Ccache_sim.Sweep.rows ~width:(List.length policies) results)
  in
  Experiment.output ~id:"e5" ~title:"SLA cost-aware vs cost-blind baselines"
    ~notes:
      [
        "alg-discrete trades misses of cheap tenants for hits of tenants \
         near their SLA cliff, landing at lower total refund than the \
         cost-blind baselines; belady/convex-belady rows are offline \
         references, not online competitors";
      ]
    tables

let spec =
  {
    Experiment.id = "e5";
    title = "SLA cost-aware vs cost-blind baselines";
    claim = "Section 1.1 motivation: non-linear costs need cost-aware eviction";
    run;
  }
