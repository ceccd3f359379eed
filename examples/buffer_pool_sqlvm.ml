(* End-to-end DaaS buffer-pool walkthrough:

   1. generate a multi-tenant buffer-pool trace and persist it to disk
      (the text format round-trips, so real traces can be dropped in);
   2. characterise it (per-tenant footprints, reuse);
   3. run the cost-aware policy and compare accountings (misses vs the
      paper's eviction accounting with terminal flush);
   4. scale out to multiple pools with tenant migration (the paper's
      future-work Section 5).

     dune exec examples/buffer_pool_sqlvm.exe *)

module Cf = Ccache_cost.Cost_function
module W = Ccache_trace.Workloads
module Engine = Ccache_sim.Engine
module Metrics = Ccache_sim.Metrics
module ME = Ccache_multipool.Multi_engine
module Tbl = Ccache_util.Ascii_table

let () =
  (* --- 1. generate and persist ------------------------------------ *)
  let trace = W.generate ~seed:2026 ~length:12_000 (W.sqlvm_mix ~scale:2) in
  let path = Filename.temp_file "bufferpool" ".trace" in
  Ccache_trace.Trace_io.write_file path trace;
  let trace = Ccache_trace.Trace_io.read_file path in
  Sys.remove path;
  Printf.printf "trace round-tripped through %s (%d requests)\n\n"
    (Filename.basename path) (Ccache_trace.Trace.length trace);

  (* --- 2. characterise --------------------------------------------- *)
  let stats = Ccache_trace.Trace_stats.compute trace in
  Tbl.print (Ccache_trace.Trace_stats.to_table stats);
  Printf.printf "max achievable hit ratio (infinite cache): %.1f%%\n\n"
    (100.0 *. Ccache_trace.Trace_stats.max_hit_ratio stats);

  (* --- 3. run and compare accountings ------------------------------ *)
  let costs =
    [|
      Ccache_cost.Sla.hinge ~tolerance:200.0 ~penalty_rate:4.0;
      Ccache_cost.Sla.tiered ~thresholds:[ 100.0; 300.0 ] ~base_rate:1.0 ~escalation:2.5;
      Cf.linear ~slope:0.5 ();
      Cf.monomial ~beta:2.0 ();
      Ccache_cost.Sla.hinge ~tolerance:60.0 ~penalty_rate:8.0;
    |]
  in
  let k = 192 in
  let plain = Engine.run ~k ~costs Ccache_core.Alg_discrete.policy trace in
  let flushed = Engine.run ~flush:true ~k ~costs Ccache_core.Alg_discrete.policy trace in
  Printf.printf "accountings for ALG-DISCRETE at k = %d:\n" k;
  Printf.printf "  by misses            : %.0f\n" (Metrics.total_cost ~costs plain);
  Printf.printf "  by evictions (flush) : %.0f\n"
    (Cf.total costs flushed.Engine.evictions_per_user);
  Printf.printf
    "  (the paper's ICP accounting charges evictions; the terminal flush makes \
     them equal to misses)\n\n";

  (* --- 4. multiple pools (future work, Section 5) ------------------ *)
  let tbl =
    Tbl.create ~title:"scale-out: same total memory, more pools"
      ~aligns:[ Tbl.Right; Tbl.Left; Tbl.Right; Tbl.Right ]
      [ "pools"; "assignment"; "cost"; "migrations" ]
  in
  Tbl.add_row tbl
    [ "1"; "shared"; Tbl.cell_float ~digits:6 (Metrics.total_cost ~costs plain); "0" ];
  List.iter
    (fun pools ->
      List.iter
        (fun strategy ->
          let r = ME.run ~pools ~pool_size:(k / pools) ~strategy ~costs trace in
          Tbl.add_row tbl
            [
              Tbl.cell_int pools;
              r.ME.strategy;
              Tbl.cell_float ~digits:6 r.ME.total_cost;
              Tbl.cell_int r.ME.migrations;
            ])
        [
          ME.Static_round_robin;
          ME.Greedy_cost { rebalance_every = 400; switch_cost = 100.0 };
        ])
    [ 2; 4 ];
  Tbl.print tbl
