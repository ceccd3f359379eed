(* Tests for Ccache_util.Domain_pool and the parallel plumbing built
   on it: futures, ordering, exception propagation, graceful shutdown,
   and the determinism contract (pool size never changes results). *)

module Pool = Ccache_util.Domain_pool
module A = Ccache_analysis

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Futures                                                             *)
(* ------------------------------------------------------------------ *)

let test_submit_await () =
  Pool.with_pool ~size:2 (fun pool ->
      let f = Pool.submit pool (fun () -> 6 * 7) in
      checki "one task" 42 (Pool.await f);
      checki "await twice" 42 (Pool.await f);
      let futs = List.init 50 (fun i -> Pool.submit pool (fun () -> i * i)) in
      List.iteri (fun i f -> checki "squares" (i * i) (Pool.await f)) futs)

let test_await_reraises () =
  Pool.with_pool ~size:2 (fun pool ->
      let f = Pool.submit pool (fun () -> raise (Boom 13)) in
      (match Pool.await f with
      | _ -> Alcotest.fail "await should re-raise"
      | exception Boom 13 -> ());
      (* a failed task poisons nothing: the pool keeps serving *)
      let g = Pool.submit pool (fun () -> "alive") in
      checks "pool survives failure" "alive" (Pool.await g))

let test_parallel_map_exception () =
  Pool.with_pool ~size:3 (fun pool ->
      match
        Pool.parallel_map pool
          ~f:(fun i -> if i = 5 then raise (Boom i) else i)
          (List.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "parallel_map should re-raise"
      | exception Boom 5 -> ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let test_shutdown () =
  let pool = Pool.create ~size:2 () in
  (* queued work completes before workers exit *)
  let futs = List.init 20 (fun i -> Pool.submit pool (fun () -> i + 1)) in
  Pool.shutdown pool;
  List.iteri (fun i f -> checki "drained" (i + 1) (Pool.await f)) futs;
  Pool.shutdown pool (* idempotent *);
  (match Pool.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ());
  (* with_pool shuts down even when the body raises *)
  match Pool.with_pool ~size:1 (fun _ -> raise (Boom 1)) with
  | _ -> Alcotest.fail "with_pool should re-raise"
  | exception Boom 1 -> ()

let test_shutdown_now () =
  (* One worker, pinned on a blocker task, so the five queued tasks are
     provably still in the queue when shutdown_now drains it: their
     futures must fail with Pool_shutdown rather than hang, while the
     already-running blocker completes normally. *)
  let pool = Pool.create ~size:1 () in
  let release = Atomic.make false in
  let started = Atomic.make false in
  let blocker =
    Pool.submit pool (fun () ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        42)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let queued = List.init 5 (fun i -> Pool.submit pool (fun () -> i)) in
  (* release the blocker only after shutdown_now is already joining *)
  let releaser =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Atomic.set release true)
  in
  Pool.shutdown_now pool;
  Domain.join releaser;
  checki "running task completed" 42 (Pool.await blocker);
  List.iter
    (fun f ->
      match Pool.await f with
      | _ -> Alcotest.fail "cancelled future must not produce a value"
      | exception Pool.Pool_shutdown -> ())
    queued;
  Pool.shutdown_now pool (* idempotent *);
  Pool.shutdown pool (* and freely mixable with graceful shutdown *);
  match Pool.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown_now should raise"
  | exception Invalid_argument _ -> ()

let test_sizing () =
  checkb "default size positive" true (Pool.default_size () >= 1);
  Pool.with_pool ~size:0 (fun pool -> checki "clamped up" 1 (Pool.size pool));
  Pool.with_pool ~size:3 (fun pool -> checki "as asked" 3 (Pool.size pool))

(* ------------------------------------------------------------------ *)
(* parallel_map = List.map (qcheck)                                    *)
(* ------------------------------------------------------------------ *)

let map_model_test =
  QCheck.Test.make ~name:"parallel_map matches List.map" ~count:30
    QCheck.(pair (int_range 1 6) (list small_int))
    (fun (width, xs) ->
      let f x = (x * 2) + 1 in
      Pool.with_pool ~size:width (fun pool ->
          Pool.parallel_map pool ~f xs = List.map f xs))

(* ------------------------------------------------------------------ *)
(* Determinism across pool sizes                                       *)
(* ------------------------------------------------------------------ *)

let test_suite_output_identical () =
  (* the --jobs 1 vs --jobs 4 contract, on a suite prefix to keep the
     test fast; bin/experiments.exe runs the supervised form of this
     path, Report.run_suite_supervised, whose report is this one when
     nothing is quarantined *)
  let specs = List.filteri (fun i _ -> i < 3) A.Suite.all in
  let size = A.Experiment.Quick in
  let serial = A.Report.run_suite ~size specs in
  let pooled =
    Pool.with_pool ~size:4 (fun pool -> A.Report.run_suite ~pool ~size specs)
  in
  checks "suite report byte-identical" serial pooled

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_parallel"
    [
      ( "futures",
        [
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "await re-raises" `Quick test_await_reraises;
          Alcotest.test_case "map re-raises" `Quick test_parallel_map_exception;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "graceful shutdown" `Quick test_shutdown;
          Alcotest.test_case "abortive shutdown" `Quick test_shutdown_now;
          Alcotest.test_case "sizing" `Quick test_sizing;
        ] );
      ("model", qsuite [ map_model_test ]);
      ( "determinism",
        [
          Alcotest.test_case "suite report" `Quick test_suite_output_identical;
        ] );
    ]
