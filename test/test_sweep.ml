(* Engine-cell sweeps: Sweep.run_cells must be byte-identical to
   per-cell Engine.run over arbitrary (policy, k, costs, trace) grids,
   whether the cells share one trace (and so one index for the offline
   ones) or not — the invariant the suite goldens enforce end to end,
   checked here at the API level.  Also covers the Engine.Step API
   directly and Domain_pool.map_list, the fan-out under Sweep.run. *)

module Pool = Ccache_util.Domain_pool
module Sweep = Ccache_sim.Sweep
module Engine = Ccache_sim.Engine
module W = Ccache_trace.Workloads
module Cf = Ccache_cost.Cost_function

let checkb = Alcotest.(check bool)

let tenants = 3

let make_trace ~seed ~length =
  W.generate ~seed ~length
    (W.symmetric_zipf ~tenants ~pages_per_tenant:24 ~skew:0.8)

(* Online, offline (needs_future, so cells over one trace share its
   index) and the paper's algorithms all in one pool. *)
let policy_pool =
  [|
    Ccache_policies.Lru.policy;
    Ccache_policies.Lfu.policy;
    Ccache_policies.Landlord.adaptive;
    Ccache_core.Alg_discrete.policy;
    Ccache_core.Alg_fast.policy;
    Ccache_policies.Belady.policy;
    Ccache_policies.Convex_belady.policy;
  |]

let costs_of ~beta =
  Array.init tenants (fun i ->
      if i = 0 then Cf.linear ~slope:2.0 () else Cf.monomial ~beta ())

(* The reference: one plain Engine.run per cell, each building its own
   index. *)
let solo (c : Sweep.cell) =
  Engine.run ~flush:c.Sweep.flush ~k:c.Sweep.k ~costs:c.Sweep.costs
    c.Sweep.policy c.Sweep.trace

(* One random grid: a shared trace plus a list of heterogeneous cells
   over it.  [Engine.result] is a record of scalars, arrays and page
   lists, so structural equality is the byte-identity check. *)
let cell_params =
  QCheck.(
    list_of_size Gen.(int_range 1 8)
      (triple (int_range 0 (Array.length policy_pool - 1)) (int_range 1 40)
         bool))

let cells_over trace params =
  List.map
    (fun (pi, k, flush) ->
      let beta = 1.0 +. (float_of_int (k mod 5) /. 2.0) in
      Sweep.cell ~flush ~k ~costs:(costs_of ~beta) policy_pool.(pi) trace)
    params

let run_cells_matches_solo =
  QCheck.Test.make ~name:"run_cells = per-cell Engine.run" ~count:40
    QCheck.(triple (int_range 0 1000) (int_range 50 400) cell_params)
    (fun (seed, length, params) ->
      QCheck.assume (params <> []);
      let trace = make_trace ~seed ~length in
      let cells = cells_over trace params in
      Sweep.run_cells cells = List.map solo cells)

let run_cells_matches_solo_distinct_traces =
  (* cells alternating over two physically distinct traces: each
     offline cell must get the index of its own trace *)
  QCheck.Test.make ~name:"run_cells with distinct traces (alternating)"
    ~count:25
    QCheck.(triple (int_range 0 1000) (int_range 50 300) cell_params)
    (fun (seed, length, params) ->
      QCheck.assume (List.length params >= 2);
      let t1 = make_trace ~seed ~length in
      let t2 = make_trace ~seed:(seed + 1) ~length in
      let cells =
        List.mapi
          (fun i c -> { c with Sweep.trace = (if i mod 2 = 0 then t1 else t2) })
          (cells_over t1 params)
      in
      Sweep.run_cells cells = List.map solo cells)

let step_matches_run =
  (* the stepping API driven by hand is the engine *)
  QCheck.Test.make ~name:"Engine.Step init/step/finish = Engine.run" ~count:40
    QCheck.(
      quad (int_range 0 1000) (int_range 30 300)
        (int_range 0 (Array.length policy_pool - 1))
        (pair (int_range 1 32) bool))
    (fun (seed, length, pi, (k, flush)) ->
      let trace = make_trace ~seed ~length in
      let costs = costs_of ~beta:2.0 in
      let policy = policy_pool.(pi) in
      let st = Engine.Step.init ~flush ~k ~costs policy trace in
      for pos = 0 to Engine.Step.length st - 1 do
        Engine.Step.step st pos
      done;
      Engine.Step.finish st = Engine.run ~flush ~k ~costs policy trace)

let test_rows () =
  checkb "rows splits row-major" true
    (Sweep.rows ~width:2 [ 1; 2; 3; 4; 5; 6 ] = [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ]);
  checkb "empty" true (Sweep.rows ~width:3 [] = []);
  (match Sweep.rows ~width:0 [ 1 ] with
  | _ -> Alcotest.fail "width 0 must raise"
  | exception Invalid_argument _ -> ());
  match Sweep.rows ~width:2 [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "ragged input must raise"
  | exception Invalid_argument _ -> ()

(* --------------------------------------------------------------- *)
(* Domain_pool.map_list                                              *)
(* --------------------------------------------------------------- *)

let test_map_list_serial () =
  (* without a pool every element runs on the calling domain, in input
     order *)
  let f x = (x * 3) + 1 in
  let xs = List.init 23 Fun.id in
  let seen = ref [] in
  let ys =
    Pool.map_list
      ~f:(fun x ->
        seen := x :: !seen;
        f x)
      xs
  in
  checkb "= List.map" true (ys = List.map f xs);
  checkb "visits in input order" true (List.rev !seen = xs)

let test_map_blocks_counter () =
  (* pool/map_blocks counts elements, with or without a pool *)
  let count () =
    Option.value ~default:0
      (List.assoc_opt "pool/map_blocks"
         (Ccache_obs.Metrics.snapshot ()).Ccache_obs.Metrics.counters)
  in
  let delta run =
    let before = count () in
    ignore (run () : int list);
    count () - before
  in
  let xs = List.init 17 Fun.id in
  Ccache_obs.Control.with_enabled @@ fun () ->
  Alcotest.(check int) "no pool" 17
    (delta (fun () -> Pool.map_list ~f:succ xs));
  Alcotest.(check int) "pool of 2" 17
    (delta (fun () ->
         Pool.with_pool ~size:2 (fun pool -> Pool.map_list ~pool ~f:succ xs)))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_sweep"
    [
      ( "equivalence",
        qsuite
          [
            run_cells_matches_solo;
            run_cells_matches_solo_distinct_traces;
            step_matches_run;
          ] );
      ( "grouping", [ Alcotest.test_case "rows" `Quick test_rows ] );
      ( "map_list fanout",
        [
          Alcotest.test_case "serial order" `Quick test_map_list_serial;
          Alcotest.test_case "map_blocks counter" `Quick
            test_map_blocks_counter;
        ] );
    ]
