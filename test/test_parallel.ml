(* Tests for Ccache_util.Domain_pool, the fork-join map, and the
   parallel plumbing built on it: ordering, exception propagation,
   sizing, and the determinism contract (the width never changes
   results). *)

module Pool = Ccache_util.Domain_pool
module A = Ccache_analysis

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Exceptions                                                          *)
(* ------------------------------------------------------------------ *)

(* Elements 2 and 7 raise.  Element 2 waits (boundedly: at width 1 it
   runs before element 7) for element 7 to fail first, so on a
   multicore host the later element's error is raised earlier in time;
   the map must still run every element and re-raise element 2's. *)
let test_map_exception () =
  let ran = Atomic.make 0 in
  let late_failed = Atomic.make false in
  let f i =
    Atomic.incr ran;
    if i = 2 then begin
      let spins = ref 0 in
      while (not (Atomic.get late_failed)) && !spins < 1_000_000 do
        Domain.cpu_relax ();
        incr spins
      done;
      raise (Boom 2)
    end;
    if i = 7 then begin
      Atomic.set late_failed true;
      raise (Boom 7)
    end;
    i
  in
  List.iter
    (fun width ->
      Atomic.set ran 0;
      Atomic.set late_failed false;
      match
        Pool.map_list ~pool:(Pool.create ~size:width ()) ~f (List.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "map_list should re-raise"
      | exception Boom i ->
          checki (Printf.sprintf "first error in input order (width %d)" width) 2 i;
          checki (Printf.sprintf "every element ran (width %d)" width) 10
            (Atomic.get ran))
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)
(* ------------------------------------------------------------------ *)

let test_sizing () =
  checkb "default size positive" true (Pool.default_size () >= 1);
  checki "clamped up" 1 (Pool.size (Pool.create ~size:0 ()));
  checki "as asked" 3 (Pool.size (Pool.create ~size:3 ()));
  checki "clamped down" 64 (Pool.size (Pool.create ~size:1000 ()))

(* ------------------------------------------------------------------ *)
(* map_list = List.map (qcheck)                                        *)
(* ------------------------------------------------------------------ *)

let map_model_test =
  QCheck.Test.make ~name:"parallel_map matches List.map" ~count:30
    QCheck.(pair (int_range 1 6) (list small_int))
    (fun (width, xs) ->
      let f x = (x * 2) + 1 in
      Pool.map_list ~pool:(Pool.create ~size:width ()) ~f xs = List.map f xs)

(* ------------------------------------------------------------------ *)
(* Determinism across pool sizes                                       *)
(* ------------------------------------------------------------------ *)

let test_suite_output_identical () =
  (* the --jobs 1 vs --jobs 4 contract of bin/experiments.exe, on a
     suite prefix to keep the test fast *)
  let specs = List.filteri (fun i _ -> i < 3) A.Suite.all in
  let size = A.Experiment.Quick in
  let report ?pool () =
    (A.Report.run_suite_supervised ?pool ~size specs).A.Report.report
  in
  let serial = report () in
  let pooled = report ~pool:(Pool.create ~size:4 ()) () in
  checks "suite report byte-identical" serial pooled

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_parallel"
    [
      (* group and case labels predate the fork-join map; they are kept
         so each case prints under its established name *)
      ( "futures",
        [ Alcotest.test_case "map re-raises" `Quick test_map_exception ] );
      ("lifecycle", [ Alcotest.test_case "sizing" `Quick test_sizing ]);
      ("model", qsuite [ map_model_test ]);
      ( "determinism",
        [
          Alcotest.test_case "suite report" `Quick test_suite_output_identical;
        ] );
    ]
