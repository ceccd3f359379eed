(* Tests for ccache_dbsim: the B-tree storage model, query
   compilation, and the query-level workload generator. *)

module S = Ccache_dbsim.Schema
module Q = Ccache_dbsim.Query
module WG = Ccache_dbsim.Workload_gen
open Ccache_trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_depth () =
  checki "1 leaf" 1 (S.index_depth (S.table_spec ~fanout:4 ~data_pages:1 ()));
  checki "within one fanout" 1 (S.index_depth (S.table_spec ~fanout:4 ~data_pages:4 ()));
  checki "two levels" 2 (S.index_depth (S.table_spec ~fanout:4 ~data_pages:5 ()));
  checki "three levels" 3 (S.index_depth (S.table_spec ~fanout:4 ~data_pages:17 ()));
  (* 64-fanout over 80 pages: depth 2 (root + 1 internal level) *)
  checki "realistic" 2 (S.index_depth (S.table_spec ~fanout:64 ~data_pages:80 ()))

let test_schema_level_sizes () =
  let spec = S.table_spec ~fanout:4 ~data_pages:17 () in
  (match S.index_level_sizes spec with
  | [ root; mid; leaf_dir ] ->
      checki "root" 1 root;
      (* ceil(17/16)=2, ceil(17/4)=5 *)
      checki "mid" 2 mid;
      checki "leaf directory" 5 leaf_dir
  | _ -> Alcotest.fail "expected three levels");
  checki "index pages" 8 (S.index_pages spec);
  checki "total" 25 (S.total_pages spec)

let test_schema_layout_disjoint () =
  let schema =
    S.create
      [ S.table_spec ~fanout:4 ~data_pages:10 (); S.table_spec ~fanout:4 ~data_pages:6 () ]
  in
  let t0 = S.table schema 0 and t1 = S.table schema 1 in
  checki "t0 starts at 0" 0 t0.S.base;
  checki "t1 starts after t0" (S.total_pages t0.S.spec) t1.S.base;
  checki "t1's last leaf ends the layout"
    (S.total_pages t0.S.spec + S.total_pages t1.S.spec - 1)
    (S.data_page t1 5);
  (* data pages of t0 never collide with any page of t1 *)
  for i = 0 to 9 do
    checkb "t0 data below t1 base" true (S.data_page t0 i < t1.S.base)
  done

let test_schema_validation () =
  Alcotest.check_raises "no tables" (Invalid_argument "Schema.create: no tables")
    (fun () -> ignore (S.create []));
  Alcotest.check_raises "bad fanout"
    (Invalid_argument "Schema.table_spec: fanout must be >= 2") (fun () ->
      ignore (S.table_spec ~fanout:1 ~data_pages:5 ()));
  Alcotest.check_raises "leaf range"
    (Invalid_argument "Schema.data_page: leaf out of range") (fun () ->
      let schema = S.create [ S.table_spec ~fanout:4 ~data_pages:3 () ] in
      ignore (S.data_page (S.table schema 0) 3))

(* ------------------------------------------------------------------ *)
(* Query compilation                                                   *)
(* ------------------------------------------------------------------ *)

let schema_17 () = S.create [ S.table_spec ~fanout:4 ~data_pages:17 () ]

let test_point_lookup_shape () =
  let schema = schema_17 () in
  let pages = Q.compile schema (Q.Point_lookup { table = 0 }) ~leaf_rank:7 in
  (* depth 3 descent + 1 data page *)
  checki "4 pages" 4 (List.length pages);
  (* first page is always the root (page 0 of the table) *)
  checki "root first" 0 (List.hd pages);
  (* last page is the leaf *)
  let tbl = S.table schema 0 in
  checki "leaf last" (S.data_page tbl 7) (List.nth pages 3)

let test_descent_shares_root () =
  let schema = schema_17 () in
  let d1 = Q.descent schema ~table:0 ~leaf:0 in
  let d2 = Q.descent schema ~table:0 ~leaf:16 in
  checkb "same root" true (List.hd d1 = List.hd d2);
  checkb "different lower levels" true (d1 <> d2)

let test_range_scan_sequential () =
  let schema = schema_17 () in
  let tbl = S.table schema 0 in
  let pages = Q.compile schema (Q.Range_scan { table = 0; length = 5 }) ~leaf_rank:3 in
  (* last 5 pages are consecutive leaves from 3 *)
  let leaves = List.filteri (fun i _ -> i >= List.length pages - 5) pages in
  checkb "consecutive" true
    (leaves = List.init 5 (fun i -> S.data_page tbl (3 + i)))

let test_range_scan_clamps_to_table_end () =
  let schema = schema_17 () in
  let pages = Q.compile schema (Q.Range_scan { table = 0; length = 5 }) ~leaf_rank:16 in
  (* start shifts back so the scan fits: leaves 12..16 *)
  let tbl = S.table schema 0 in
  checkb "ends at last leaf" true
    (List.rev pages |> List.hd = S.data_page tbl 16)

let test_full_scan_covers_all_leaves () =
  let schema = schema_17 () in
  let pages = Q.compile schema (Q.Full_scan { table = 0 }) ~leaf_rank:0 in
  let tbl = S.table schema 0 in
  let leaves = List.filter (fun p -> p >= tbl.S.base + S.index_pages tbl.S.spec) pages in
  checki "all 17 leaves" 17 (List.length leaves)

let test_leaf_rank_clamped () =
  let schema = schema_17 () in
  (* out-of-range and negative ranks are wrapped, never raise *)
  List.iter
    (fun rank ->
      checkb "compiles" true
        (Q.compile schema (Q.Point_lookup { table = 0 }) ~leaf_rank:rank <> []))
    [ -1; 17; 1000; min_int + 17 ]

(* ------------------------------------------------------------------ *)
(* Workload generation                                                 *)
(* ------------------------------------------------------------------ *)

let test_generate_deterministic_and_valid () =
  let profiles = WG.oltp_reporting ~scale:1 in
  let t1, s1 = WG.generate ~seed:9 ~queries:500 profiles in
  let t2, _ = WG.generate ~seed:9 ~queries:500 profiles in
  checkb "deterministic" true (Trace.requests t1 = Trace.requests t2);
  checki "two tenants" 2 (Trace.n_users t1);
  checki "query conservation" 500
    (Array.fold_left ( + ) 0 s1.WG.queries_per_tenant);
  checki "page counts match trace" (Trace.length t1)
    (Array.fold_left ( + ) 0 s1.WG.pages_per_tenant);
  (* every page id within the owning tenant's schema footprint: its
     tables' pages, laid out back to back *)
  let footprint schema =
    List.fold_left ( + ) 0
      (List.init (S.n_tables schema) (fun i ->
           S.total_pages (S.table schema i).S.spec))
  in
  let fps = List.map (fun p -> footprint p.WG.schema) profiles in
  Array.iter
    (fun q ->
      let fp = List.nth fps (Page.user q) in
      checkb "page within footprint" true (Page.id q < fp))
    (Trace.requests t1)

let test_generate_hot_roots () =
  (* index roots are touched by every query of their table: they must
     dominate the page-frequency distribution *)
  let profiles = WG.oltp_reporting ~scale:1 in
  let trace, _ = WG.generate ~seed:10 ~queries:800 profiles in
  let counts = Page.Tbl.create 256 in
  Array.iter
    (fun q ->
      Page.Tbl.replace counts q
        (1 + Option.value (Page.Tbl.find_opt counts q) ~default:0))
    (Trace.requests trace);
  (* tenant 0's table-0 root is page 0 *)
  let root_count =
    Option.value (Page.Tbl.find_opt counts (Page.make ~user:0 ~id:0)) ~default:0
  in
  let mean =
    float_of_int (Trace.length trace) /. float_of_int (Page.Tbl.length counts)
  in
  checkb "root much hotter than average" true (float_of_int root_count > 5.0 *. mean)

let test_generate_validation () =
  Alcotest.check_raises "no tenants"
    (Invalid_argument "Workload_gen.generate: no tenants") (fun () ->
      ignore (WG.generate ~seed:1 ~queries:10 []));
  let schema = S.create [ S.table_spec ~data_pages:4 () ] in
  Alcotest.check_raises "unknown table"
    (Invalid_argument "Workload_gen.profile: query references unknown table")
    (fun () ->
      ignore (WG.profile ~schema [ (1.0, Q.Point_lookup { table = 3 }) ]))

let test_buffer_pool_behaviour () =
  (* sanity: on the OLTP+reporting mix, LRU caches the hot index/leaf
     set and achieves a decent hit ratio at modest k *)
  let trace, _ = WG.generate ~seed:11 ~queries:2500 (WG.oltp_reporting ~scale:1) in
  let costs = Array.init 2 (fun _ -> Ccache_cost.Cost_function.linear ~slope:1.0 ()) in
  let r = Ccache_sim.Engine.run ~k:64 ~costs Ccache_policies.Lru.policy trace in
  checkb "hit ratio above 50%" true
    (float_of_int r.Ccache_sim.Engine.hits
    > 0.5 *. float_of_int (Trace.length trace))

let () =
  Alcotest.run "ccache_dbsim"
    [
      ( "schema",
        [
          Alcotest.test_case "index depth" `Quick test_schema_depth;
          Alcotest.test_case "level sizes" `Quick test_schema_level_sizes;
          Alcotest.test_case "disjoint layout" `Quick test_schema_layout_disjoint;
          Alcotest.test_case "validation" `Quick test_schema_validation;
        ] );
      ( "query",
        [
          Alcotest.test_case "point lookup shape" `Quick test_point_lookup_shape;
          Alcotest.test_case "descent shares root" `Quick test_descent_shares_root;
          Alcotest.test_case "range scan sequential" `Quick test_range_scan_sequential;
          Alcotest.test_case "range scan clamps" `Quick test_range_scan_clamps_to_table_end;
          Alcotest.test_case "full scan" `Quick test_full_scan_covers_all_leaves;
          Alcotest.test_case "rank clamping" `Quick test_leaf_rank_clamped;
        ] );
      ( "workload_gen",
        [
          Alcotest.test_case "deterministic + valid" `Quick test_generate_deterministic_and_valid;
          Alcotest.test_case "hot roots" `Quick test_generate_hot_roots;
          Alcotest.test_case "validation" `Quick test_generate_validation;
          Alcotest.test_case "buffer-pool behaviour" `Quick test_buffer_pool_behaviour;
        ] );
    ]
