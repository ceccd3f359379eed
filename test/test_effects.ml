(* Tests for tools/effects: the effect-set lattice, fixpoint
   monotonicity (property), golden findings over the fixture library,
   and the --inject mutation hook over the real lib/ call graph.

   The shell-out tests run the real ccache_effects.exe exactly as CI
   does; cwd is _build/default/test, so the built lib/ and fixture
   .cmt trees are siblings at ../lib and effects_fixtures/. *)

let exe =
  Filename.concat ".."
    (Filename.concat "tools" (Filename.concat "effects" "ccache_effects.exe"))

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let run_capture cmd =
  let out = Filename.temp_file "ccache_effects_test" ".out" in
  let code = Sys.command (cmd ^ " > " ^ Filename.quote out ^ " 2> /dev/null") in
  let ic = open_in out in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove out;
  (code, List.rev !lines)

let effects args = run_capture (Filename.quote exe ^ " " ^ args)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- effect-set lattice sanity ---- *)

let test_effect_set () =
  let module Es = Effect_set in
  Alcotest.(check string) "empty prints as dash" "-" (Es.to_string Es.empty);
  let s = Es.of_list [ Es.Time; Es.Alloc ] in
  Alcotest.(check string) "ordered rendering" "time+alloc" (Es.to_string s);
  checkb "subset of all" true (Es.subset s Es.all);
  checkb "union is monotone" true (Es.subset s (Es.union s (Es.bit Es.Io)));
  checkb "diff removes" false Es.(mem (diff s (bit Time)) Time);
  List.iter
    (fun c ->
      Alcotest.(check (option string))
        ("name roundtrip " ^ Es.name c)
        (Some (Es.name c))
        (Option.map Es.name (Es.of_name (Es.name c))))
    Es.all_classes

(* ---- fixpoint monotonicity: adding a call edge never shrinks any
   node's effect set ---- *)

let gen_graph =
  QCheck.Gen.(
    let node_name i = "n" ^ string_of_int i in
    let* n = int_range 2 10 in
    let name = map node_name (int_range 0 (n - 1)) in
    (* callees draw from nodes and a few externs *)
    let callee =
      frequency
        [ (3, name); (1, map (fun i -> "ext" ^ string_of_int i) (int_range 0 4)) ]
    in
    let eset = map (fun b -> b land 127) (int_range 0 127) in
    let edge = pair callee eset in
    let node i =
      let* seed = eset in
      let* forgiven = frequency [ (3, return 0); (1, eset) ] in
      let* calls = list_size (int_range 0 4) edge in
      return { Effects_graph.id = node_name i; seed; forgiven; calls }
    in
    let* nodes = flatten_l (List.init n node) in
    let* src = name and* dst = callee in
    return (nodes, src, dst))

let extern name = Hashtbl.hash name land 127

let test_monotone =
  QCheck.Test.make ~name:"adding a call edge never shrinks an effect set"
    ~count:500
    (QCheck.make ~print:(fun (ns, s, d) ->
         Printf.sprintf "%d nodes, +%s->%s" (List.length ns) s d)
       gen_graph)
    (fun (nodes, src, dst) ->
      let g0 = Effects_graph.of_nodes nodes in
      let before = Effects_graph.fixpoint ~extern g0 in
      let g1 = Effects_graph.of_nodes nodes in
      Effects_graph.add_call g1 ~src ~callee:dst;
      let after = Effects_graph.fixpoint ~extern g1 in
      List.for_all
        (fun (n : Effects_graph.node) ->
          Effect_set.subset
            (Effects_graph.effects before n.id)
            (Effects_graph.effects after n.id))
        nodes)

(* ---- golden findings over the fixture library ---- *)

(* (file, rule) pairs that MUST be reported, one per effect class. *)
let expected_fixture_findings =
  [
    ("bad_time.ml", "contract-deterministic");
    ("bad_time.ml", "direct-clock");
    ("bad_rand.ml", "contract-pure");
    ("bad_io.ml", "contract-pure");
    ("bad_gwrite.ml", "contract-pure");
    ("bad_spawn.ml", "contract-deterministic");
    ("bad_alloc.ml", "contract-no_alloc");
    ("bad_bigarray.ml", "contract-no_alloc");
    ("bad_submodule.ml", "contract-no_alloc");
    ("bad_pool.ml", "pool-task-global-write");
    ("bad_pool.ml", "pool-task-capture");
    ("bad_pool_transitive.ml", "pool-task-global-write");
  ]

let test_fixture_findings () =
  let code, lines = effects "--root effects_fixtures --no-required" in
  checki "violations exit 1" 1 code;
  List.iter
    (fun (file, rule) ->
      checkb
        (Printf.sprintf "%s flagged by %s" file rule)
        true
        (List.exists
           (fun l -> contains_sub l file && contains_sub l ("[" ^ rule ^ "]"))
           lines))
    expected_fixture_findings;
  List.iter
    (fun l ->
      checkb ("no finding on a passing module: " ^ l) false
        (contains_sub l "good_"))
    lines

(* ---- the real library is clean, and stays checked ---- *)

let test_lib_clean () =
  let code, lines = effects "--root ../lib" in
  checki "lib/ has no findings" 0 code;
  Alcotest.(check (list string)) "no output" [] lines

(* Seeded mutation: wiring a clock read into the engine step MUST be
   caught — this is the canary that the analysis, the contract table
   and the CI gate are actually connected. *)
let test_mutation_caught () =
  let code, lines =
    effects
      "--root ../lib --inject Ccache_sim.Engine.Step.step=Unix.gettimeofday"
  in
  checki "mutated step fails the check" 1 code;
  checkb "step's deterministic contract violated" true
    (List.exists
       (fun l ->
         contains_sub l "[contract-deterministic]"
         && contains_sub l "Engine.Step.step")
       lines);
  checkb "clock reaches the serve shard pool task" true
    (List.exists
       (fun l ->
         contains_sub l "[pool-task-effects]"
         && contains_sub l "Ccache_serve.Service.run_inner")
       lines)

let test_mutation_alloc () =
  let code, lines =
    effects "--root ../lib --inject Ccache_core.Alg_fast.touch=Printf.sprintf"
  in
  checki "allocating touch fails the check" 1 code;
  checkb "touch's no_alloc contract violated" true
    (List.exists
       (fun l ->
         contains_sub l "[contract-no_alloc]" && contains_sub l "Alg_fast.touch")
       lines)

let () =
  Alcotest.run "ccache_effects"
    [
      ( "lattice",
        [
          Alcotest.test_case "effect-set operations" `Quick test_effect_set;
          QCheck_alcotest.to_alcotest test_monotone;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "one finding per effect class" `Quick
            test_fixture_findings;
        ] );
      ( "library",
        [
          Alcotest.test_case "lib/ contracts hold" `Quick test_lib_clean;
          Alcotest.test_case "time mutation caught" `Quick test_mutation_caught;
          Alcotest.test_case "alloc mutation caught" `Quick test_mutation_alloc;
        ] );
    ]
