(* Golden tests for tools/lint/ccache_lint.exe.

   The fixtures in lint_fixtures/lib contain exactly one violation per
   rule plus one suppressed violation ([@lint.allow] inline, a floating
   whole-file allow, or an allowlist entry).  We run the real binary
   and assert the exact diagnostic set, the exit codes, and the
   --format=github rendering. *)

let exe = Filename.concat ".." (Filename.concat "tools" (Filename.concat "lint" "ccache_lint.exe"))

let check_strings = Alcotest.(check (list string))
let checki = Alcotest.(check int)

(* Run [cmd], capturing stdout lines and the exit code. *)
let run_capture cmd =
  let out = Filename.temp_file "ccache_lint_test" ".out" in
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

let lint args = run_capture (Filename.quote exe ^ " " ^ args)

let golden =
  [
    "lint_fixtures/lib/bad_capture.ml:7:45: [domain-capture] closure passed \
     to Domain_pool.parallel_map mutates ref 'total' bound outside the \
     closure: an unsynchronised cross-domain write (data race); accumulate \
     per-task results and combine after await instead";
    "lint_fixtures/lib/bad_float_eq.ml:3:12: [float-eq] exact float \
     comparison (=) on a float operand; use Ccache_util.Float_cmp (approx_eq \
     / approx_zero) or justify with [@lint.allow \"float-eq\"]";
    "lint_fixtures/lib/bad_print.ml:3:13: [no-print-in-lib] direct stdout \
     print (print_endline) in lib/; route output through Report / \
     Ascii_table so suite reports stay byte-diffable";
    "lint_fixtures/lib/bad_random.ml:3:13: [no-stdlib-random] reference to \
     Stdlib.Random; draw from a seeded Ccache_util.Prng stream instead so \
     output is reproducible at any --jobs width";
    "lint_fixtures/lib/bad_wall_clock.ml:3:13: [no-wall-clock] wall-clock \
     read (Unix.gettimeofday) in lib/; take timestamps through the \
     Ccache_obs.Clock capability so outputs stay deterministic and tests can \
     substitute clocks";
    "lint_fixtures/lib/no_sibling.ml:1:0: [mli-coverage] lib/ module has no \
     interface: add a sibling .mli documenting the public API (and its \
     tolerances/contracts)";
  ]

let test_fixture_diagnostics () =
  let code, lines =
    lint "--allowlist lint_fixtures/allowlist.txt lint_fixtures"
  in
  checki "exit code signals findings" 1 code;
  check_strings "exact diagnostic set (one per rule)" golden lines

let test_clean_tree_passes () =
  let code, lines = lint "lint_fixtures/clean" in
  checki "clean dir exits 0" 0 code;
  check_strings "no output on a clean tree" [] lines

let starts_with prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_suppressions_required () =
  (* Without the allowlist both allowlisted fixtures' findings
     reappear — including the parse-error one, which goes through
     suppression like any other rule; the inline/floating suppressions
     must still hold. *)
  let code, lines = lint "lint_fixtures" in
  checki "still non-zero" 1 code;
  checki "exactly two extra findings vs golden" (List.length golden + 2)
    (List.length lines);
  Alcotest.(check bool)
    "extra finding is the allowlisted one" true
    (List.exists
       (starts_with "lint_fixtures/lib/allowlisted_random.ml")
       lines);
  Alcotest.(check bool)
    "parse-error resurfaces without the allowlist" true
    (List.exists
       (fun l ->
         starts_with "lint_fixtures/parse/broken_allowlisted.ml" l
         && contains_sub l "[parse-error]")
       lines)

let test_github_format () =
  let code, lines =
    lint "--format=github --allowlist lint_fixtures/allowlist.txt lint_fixtures"
  in
  checki "exit code unchanged by format" 1 code;
  checki "same number of findings" (List.length golden) (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        "workflow-command prefix" true
        (String.length l > 13 && String.sub l 0 13 = "::error file="))
    lines

let test_sarif_format () =
  let code, lines =
    lint "--format=sarif --allowlist lint_fixtures/allowlist.txt lint_fixtures"
  in
  checki "exit code unchanged by format" 1 code;
  let doc = String.concat "\n" lines in
  Alcotest.(check bool)
    "declares SARIF 2.1.0" true
    (contains_sub doc "\"version\": \"2.1.0\"");
  Alcotest.(check bool)
    "driver is ccache_lint" true
    (contains_sub doc "\"name\": \"ccache_lint\"");
  (* same findings as the text golden: one result object per line *)
  checki "one result per golden finding" (List.length golden)
    (List.length
       (List.filter (fun l -> contains_sub l "\"ruleId\":") lines));
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " has driver metadata") true
        (contains_sub doc ("{\"id\": \"" ^ rule ^ "\"")))
    [ "domain-capture"; "parse-error"; "no-wall-clock" ]

(* A path that cannot be read (here: a dangling symlink inside the
   scanned tree) must produce a one-line diagnostic and a non-zero
   exit, never an uncaught exception. *)
let test_unreadable_path () =
  let dir = Filename.temp_file "ccache_lint_dangling" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.symlink (Filename.concat dir "nowhere") (Filename.concat dir "gone.ml");
  let err = Filename.temp_file "ccache_lint_test" ".err" in
  let code =
    Sys.command
      (Filename.quote exe ^ " " ^ Filename.quote dir ^ " > /dev/null 2> "
     ^ Filename.quote err)
  in
  let ic = open_in err in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove err;
  Sys.remove (Filename.concat dir "gone.ml");
  Unix.rmdir dir;
  checki "usage-style exit" 2 code;
  Alcotest.(check bool)
    "one clean ccache_lint diagnostic" true
    (match !lines with
    | [ l ] -> starts_with "ccache_lint:" l
    | _ -> false)

(* --cmt-root promotes domain-capture to the call-graph analysis: the
   transitive global write in bad_pool_transitive.ml (invisible to the
   parsetree heuristic — its closure contains no assignment) is
   caught, and covered files use the typed verdict. *)
let test_typed_domain_capture () =
  (* run from the build root so scanned paths match the build-relative
     source names recorded in the .cmt files *)
  let prefix = "cd .. && " in
  let cmd args = run_capture (prefix ^ "tools/lint/ccache_lint.exe " ^ args) in
  let code_h, lines_h = cmd "test/effects_fixtures" in
  checki "heuristic run exits 1 (direct captures)" 1 code_h;
  Alcotest.(check bool)
    "heuristic is blind to the transitive write" false
    (List.exists (fun l -> contains_sub l "bad_pool_transitive") lines_h);
  let code_t, lines_t =
    cmd "--cmt-root test/effects_fixtures test/effects_fixtures"
  in
  checki "typed run exits 1" 1 code_t;
  Alcotest.(check bool)
    "typed mode catches the transitive write" true
    (List.exists
       (fun l ->
         contains_sub l "bad_pool_transitive.ml"
         && contains_sub l "[domain-capture]"
         && contains_sub l "call-graph analysis")
       lines_t);
  Alcotest.(check bool)
    "typed mode still reports the captured-ref mutation" true
    (List.exists
       (fun l ->
         contains_sub l "bad_pool.ml"
         && contains_sub l "[domain-capture]"
         && contains_sub l "captured from the enclosing scope")
       lines_t);
  Alcotest.(check bool)
    "clean pool usage stays clean" false
    (List.exists (fun l -> contains_sub l "good_pool") lines_t)

let test_list_rules () =
  let code, lines = lint "--list-rules" in
  checki "list-rules exits 0 without PATH" 0 code;
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " is registered") true
        (List.exists
           (fun l -> String.length l >= String.length rule
                     && String.sub l 0 (String.length rule) = rule)
           lines))
    [
      "no-stdlib-random"; "float-eq"; "no-print-in-lib"; "domain-capture";
      "mli-coverage";
    ]

let () =
  Alcotest.run "ccache_lint"
    [
      ( "golden",
        [
          Alcotest.test_case "fixture diagnostics" `Quick
            test_fixture_diagnostics;
          Alcotest.test_case "clean tree passes" `Quick test_clean_tree_passes;
          Alcotest.test_case "suppression mechanisms" `Quick
            test_suppressions_required;
        ] );
      ( "formats",
        [
          Alcotest.test_case "github annotations" `Quick test_github_format;
          Alcotest.test_case "sarif log" `Quick test_sarif_format;
          Alcotest.test_case "list-rules" `Quick test_list_rules;
        ] );
      ( "cli",
        [
          Alcotest.test_case "unreadable path" `Quick test_unreadable_path;
          Alcotest.test_case "typed domain-capture" `Quick
            test_typed_domain_capture;
        ] );
    ]
