(* Tests for the supervision stack: Fault (deterministic injection),
   Supervisor (deadlines, retry/backoff, quarantine), Checkpoint
   (atomic snapshots, fingerprint guard) and the resume-determinism
   contract: a sweep killed mid-run and resumed from its checkpoint is
   bit-identical to an uninterrupted run, at any pool width, with and
   without chaos. *)

module Pool = Ccache_util.Domain_pool
module Prng = Ccache_util.Prng
module Fault = Ccache_util.Fault
module S = Ccache_util.Supervisor
module Ck = Ccache_util.Checkpoint
module Sweep = Ccache_sim.Sweep
module A = Ccache_analysis

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let tmp_path () =
  let p = Filename.temp_file "ccache_ck" ".db" in
  Sys.remove p;
  p

let cleanup p = if Sys.file_exists p then Sys.remove p

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)
(* ------------------------------------------------------------------ *)

let test_fault_spec () =
  (match Fault.of_spec "7:0.2" with
  | Ok f ->
      checki "seed parsed" 7 (Fault.seed f);
      checkb "rate parsed" true (abs_float (Fault.rate f -. 0.2) < 1e-12);
      checks "roundtrip" "7:0.2" (Fault.to_spec f)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fault.of_spec bad with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" bad
      | Error _ -> ())
    [ ""; "7"; "x:0.2"; "7:nan"; "7:1.5"; "7:-0.1"; "7:" ]

let injects f ~task ~attempt =
  match Fault.at_boundary f ~task ~attempt with
  | () -> false
  | exception Fault.Injected_transient _ -> true

let test_fault_deterministic () =
  let f = Fault.create ~seed:42 ~rate:0.5 in
  let pattern () = List.init 40 (fun i -> injects f ~task:(string_of_int i) ~attempt:0) in
  checkb "same seed, same pattern" true (pattern () = pattern ());
  checkb "some tasks faulted" true (List.mem true (pattern ()));
  checkb "some tasks spared" true (List.mem false (pattern ()));
  let g = Fault.create ~seed:43 ~rate:0.5 in
  checkb "different seed, different pattern" true
    (pattern () <> List.init 40 (fun i -> injects g ~task:(string_of_int i) ~attempt:0))

let test_fault_first_attempt_only () =
  (* rate 1.0: every task faults on attempt 0, and never afterwards —
     the invariant that makes chaos + retries converge *)
  let f = Fault.create ~seed:1 ~rate:1.0 in
  for i = 0 to 9 do
    let task = Printf.sprintf "t%d" i in
    checkb "attempt 0 faults" true (injects f ~task ~attempt:0);
    checkb "attempt 1 clean" false (injects f ~task ~attempt:1);
    checkb "attempt 2 clean" false (injects f ~task ~attempt:2)
  done

let test_fault_kill () =
  let f = Fault.kill (Fault.create ~seed:1 ~rate:0.0) [ "doomed" ] in
  (match Fault.at_boundary f ~task:"doomed" ~attempt:5 with
  | () -> Alcotest.fail "killed task must crash on every attempt"
  | exception Fault.Injected_crash { task } -> checks "task named" "doomed" task);
  Fault.at_boundary f ~task:"spared" ~attempt:0 (* no exception *)

let test_fault_validation () =
  List.iter
    (fun rate ->
      match Fault.create ~seed:0 ~rate with
      | _ -> Alcotest.failf "rate %g should be rejected" rate
      | exception Invalid_argument _ -> ())
    [ -0.1; 1.5; Float.nan; Float.infinity ]

(* ------------------------------------------------------------------ *)
(* Backoff schedule                                                    *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let p = { S.default_policy with backoff_base_s = 0.1 } in
  let d a = S.backoff_delay p ~attempt:a in
  let close x y = abs_float (x -. y) < 1e-12 in
  checkb "attempt 0 -> base" true (close (d 0) 0.1);
  checkb "attempt 1 -> doubled" true (close (d 1) 0.2);
  checkb "attempt 2 -> doubled again" true (close (d 2) 0.4);
  checkb "attempt 3 -> doubled again" true (close (d 3) 0.8);
  checkb "attempt 4 -> capped at 1 s" true (close (d 4) 1.0);
  checkb "attempt 9 -> still capped" true (close (d 9) 1.0);
  checkb "no base, no delay" true
    (S.backoff_delay { p with backoff_base_s = 0.0 } ~attempt:3 = 0.0)

let test_policy_validation () =
  let bad p =
    match S.run ~policy:p [ { S.id = "x"; run = (fun () -> ()) } ] with
    | _ -> Alcotest.fail "bad policy should be rejected"
    | exception Invalid_argument _ -> ()
  in
  bad { S.default_policy with max_retries = -1 };
  bad { S.default_policy with backoff_base_s = -1.0 };
  bad { S.default_policy with backoff_base_s = Float.nan };
  bad { S.default_policy with timeout_s = Some 0.0 }

(* ------------------------------------------------------------------ *)
(* Supervisor: retry, quarantine, deadlines                            *)
(* ------------------------------------------------------------------ *)

let fast_policy = { S.default_policy with backoff_base_s = 0.0005 }

let task id f = { S.id; run = f }

let test_all_success () =
  let tasks = List.init 10 (fun i -> task (string_of_int i) (fun () -> i * i)) in
  let out = S.run ~policy:fast_policy tasks in
  checki "all completed" 10 (List.length (S.completed out));
  checkb "in input order" true
    (S.completed out = List.init 10 (fun i -> i * i))

let test_chaos_converges () =
  (* rate 1.0 forces a transient on every task's first attempt; the
     retry budget absorbs them all and results equal the fault-free run *)
  let mk () = List.init 8 (fun i -> task (Printf.sprintf "c%d" i) (fun () -> 3 * i)) in
  let fault = Fault.create ~seed:5 ~rate:1.0 in
  let plain = S.run ~policy:fast_policy (mk ()) in
  let retries = ref 0 in
  let chaotic =
    S.run ~policy:fast_policy ~fault
      ~on_event:(function S.Retrying _ -> incr retries | _ -> ())
      (mk ())
  in
  checkb "chaos run equals fault-free run" true
    (S.completed plain = S.completed chaotic);
  checki "every task retried exactly once" 8 !retries

let test_chaos_without_retries_quarantines () =
  let fault = Fault.create ~seed:5 ~rate:1.0 in
  let out =
    S.run
      ~policy:{ fast_policy with max_retries = 0 }
      ~fault
      [ task "only" (fun () -> 1) ]
  in
  match out with
  | [ S.Quarantined f ] ->
      checks "task named" "only" f.S.task;
      checki "single attempt" 1 f.S.attempts
  | _ -> Alcotest.fail "rate-1 chaos without retries must quarantine"

let test_crash_isolation () =
  (* one permanently-crashing task; the other 9 complete, order kept *)
  let tasks =
    List.init 10 (fun i ->
        task (Printf.sprintf "t%d" i) (fun () ->
            if i = 4 then failwith "kaboom" else i))
  in
  let out = S.run ~pool:(Pool.create ~size:4 ()) ~policy:fast_policy tasks in
  checki "nine completed" 9 (List.length (S.completed out));
  (match List.nth out 4 with
  | S.Quarantined f ->
      checks "right task" "t4" f.S.task;
      (* a real exception is permanent by construction: no retry *)
      checki "quarantined immediately" 1 f.S.attempts;
      checkb "error captured" true (String.length f.S.error > 0)
  | S.Completed _ -> Alcotest.fail "t4 should be quarantined");
  checkb "other slots in order" true
    (S.completed out = [ 0; 1; 2; 3; 5; 6; 7; 8; 9 ])

let test_timeout_closing_boundary () =
  (* a task that overruns its deadline cannot return its result: the
     deadline is checked when the attempt returns *)
  let policy = { fast_policy with max_retries = 0; timeout_s = Some 0.01 } in
  match
    S.run ~policy
      [ task "sleepy" (fun () -> Unix.sleepf 0.05; "done anyway") ]
  with
  | [ S.Quarantined _ ] -> ()
  | [ S.Completed _ ] -> Alcotest.fail "overrun result must not be returned"
  | _ -> assert false

(* A deadline miss is quarantined at once, even with retries left: the
   deadline is checked only when an attempt returns, so a retry would
   run the whole task again and overrun again. *)
let test_timeout_not_retried () =
  let attempts = ref 0 in
  let policy = { fast_policy with timeout_s = Some 0.01 } in
  checki "default retry budget" 3 policy.S.max_retries;
  (match
     S.run ~policy
       [
         task "sleepy" (fun () ->
             incr attempts;
             Unix.sleepf 0.03);
       ]
   with
  | [ S.Quarantined f ] -> checki "quarantined after one attempt" 1 f.S.attempts
  | _ -> Alcotest.fail "an overrun must be quarantined");
  checki "the task ran once" 1 !attempts

let test_duplicate_ids_rejected () =
  match S.run [ task "a" (fun () -> 1); task "a" (fun () -> 2) ] with
  | _ -> Alcotest.fail "duplicate ids must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let ck = Ck.create ~path ~fingerprint:"fp v1" in
  (* payloads with newlines, tabs, binary-ish bytes *)
  Ck.record ck ~id:"a" "line1\nline2\n";
  Ck.record ck ~id:"weird id with spaces" "\x00\x01\ttab";
  Ck.record ck ~id:"empty" "";
  Ck.flush ck;
  match Ck.load ~path ~fingerprint:"fp v1" with
  | Error e -> Alcotest.fail e
  | Ok ck2 ->
      checkb "a" true (Ck.find ck2 "a" = Some "line1\nline2\n");
      checkb "weird" true
        (Ck.find ck2 "weird id with spaces" = Some "\x00\x01\ttab");
      checkb "empty payload" true (Ck.find ck2 "empty" = Some "");
      checkb "absent id" true (Ck.find ck2 "nope" = None);
      checki "three entries" 3 (Ck.length ck2);
      checkb "ids sorted" true
        (Ck.ids ck2 = [ "a"; "empty"; "weird id with spaces" ])

let test_checkpoint_fingerprint_guard () =
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let ck = Ck.create ~path ~fingerprint:"config A" in
  Ck.record ck ~id:"x" "1";
  Ck.flush ck;
  (match Ck.load ~path ~fingerprint:"config B" with
  | Ok _ -> Alcotest.fail "fingerprint mismatch must be refused"
  | Error e ->
      checkb "names the mismatch" true
        (String.length e > 0
        && Option.is_some
             (String.index_opt e 'm' (* "mismatch" *))));
  match Ck.load ~path ~fingerprint:"config A" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_checkpoint_corrupt_and_missing () =
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  (match Ck.load ~path ~fingerprint:"fp" with
  | Ok _ -> Alcotest.fail "missing file must be an error for load"
  | Error _ -> ());
  (match Ck.load_or_create ~path ~fingerprint:"fp" with
  | Ok ck -> checki "fresh when missing" 0 (Ck.length ck)
  | Error e -> Alcotest.fail e);
  (* garbage, and an entry header whose id length wraps [pos + n] *)
  List.iter
    (fun contents ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      match Ck.load ~path ~fingerprint:"fp" with
      | Ok _ -> Alcotest.fail "corrupt file must be refused"
      | Error _ -> ())
    [
      "not a checkpoint at all\n";
      "ccache-checkpoint v1\nfingerprint fp\nentry 4611686018427387903 1\n";
    ]

(* ------------------------------------------------------------------ *)
(* Resume determinism (the acceptance contract)                        *)
(* ------------------------------------------------------------------ *)

let points = List.init 12 Fun.id
let cell_id p = Printf.sprintf "cell%02d" p

(* A seeded sweep whose cells actually consume a PRNG stream, derived
   from the cell's own id, so any retry/resume slip would change the
   output. *)
let cell_f p =
  let g = Prng.derive ~seed:99 ~key:(cell_id p) in
  Printf.sprintf "%d:%d:%h" p (Prng.int g 1_000_000) (Prng.float g)

let run_cells ?pool ?fault ?checkpoint () =
  Sweep.run_supervised ?pool ~policy:fast_policy ?fault ?checkpoint
    ~codec:S.string_codec ~task_id:cell_id points ~f:cell_f

let completed_cells results =
  List.filter_map
    (fun (p, o) -> match o with S.Completed s -> Some (p, s) | _ -> None)
    results

let test_sweep_chaos_identical_any_width () =
  let baseline = completed_cells (run_cells ()) in
  checki "all cells complete" 12 (List.length baseline);
  List.iter
    (fun width ->
      let fault = Fault.create ~seed:3 ~rate:0.4 in
      let chaotic =
        if width = 1 then run_cells ~fault ()
        else run_cells ~pool:(Pool.create ~size:width ()) ~fault ()
      in
      checkb
        (Printf.sprintf "chaos run identical at width %d" width)
        true
        (completed_cells chaotic = baseline))
    [ 1; 8 ]

let kill_resume_roundtrip ~width ~with_chaos () =
  let baseline = completed_cells (run_cells ()) in
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let fingerprint = "resume-test v1" in
  let chaos_rate = if with_chaos then 0.4 else 0.0 in
  (* phase 1: kill one cell mid-sweep -> partial checkpoint + quarantine *)
  let ck = Ck.create ~path ~fingerprint in
  let fault =
    Fault.kill
      (Fault.create ~seed:3 ~rate:chaos_rate)
      [ cell_id 7 ]
  in
  let run ?pool ?fault ?checkpoint () = run_cells ?pool ?fault ?checkpoint () in
  let partial =
    if width = 1 then run ~fault ~checkpoint:ck ()
    else run ~pool:(Pool.create ~size:width ()) ~fault ~checkpoint:ck ()
  in
  checki "one quarantined"
    1
    (List.length (S.failures (List.map snd partial)));
  checki "partial checkpoint holds the other cells" 11 (Ck.length ck);
  (* phase 2: resume from the checkpoint, fault gone *)
  match Ck.load ~path ~fingerprint with
  | Error e -> Alcotest.fail e
  | Ok ck2 ->
      let replayed = ref 0 in
      let resumed =
        Sweep.run_supervised ~policy:fast_policy ~checkpoint:ck2
          ~codec:S.string_codec
          ~on_event:(function S.Replayed _ -> incr replayed | _ -> ())
          ~task_id:cell_id points ~f:cell_f
      in
      checki "eleven cells replayed, one computed" 11 !replayed;
      checkb "resumed run bit-identical to uninterrupted run" true
        (completed_cells resumed = baseline)

let test_resume_j1 () = kill_resume_roundtrip ~width:1 ~with_chaos:false ()
let test_resume_j8 () = kill_resume_roundtrip ~width:8 ~with_chaos:false ()
let test_resume_j1_chaos () = kill_resume_roundtrip ~width:1 ~with_chaos:true ()
let test_resume_j8_chaos () = kill_resume_roundtrip ~width:8 ~with_chaos:true ()

(* The same contract at the report level: a killed experiment suite
   resumed from its checkpoint renders byte-identically. *)
let test_suite_kill_resume () =
  let specs = List.filteri (fun i _ -> i < 3) A.Suite.all in
  let size = A.Experiment.Quick in
  let baseline = (A.Report.run_suite_supervised ~size specs).A.Report.report in
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let fingerprint = A.Report.fingerprint ~fmt:A.Report.Text ~size specs in
  let victim = (List.nth specs 1).A.Experiment.id in
  let ck = Ck.create ~path ~fingerprint in
  let fault = Fault.kill Fault.none [ victim ] in
  let partial =
    A.Report.run_suite_supervised ~policy:fast_policy ~fault ~checkpoint:ck
      ~size specs
  in
  checki "one experiment quarantined" 1 (List.length partial.A.Report.failures);
  checks "the right one" victim
    (List.hd partial.A.Report.failures).Ccache_util.Supervisor.task;
  match Ck.load ~path ~fingerprint with
  | Error e -> Alcotest.fail e
  | Ok ck2 ->
      let resumed =
        A.Report.run_suite_supervised ~pool:(Pool.create ~size:4 ())
          ~policy:fast_policy ~checkpoint:ck2 ~size specs
      in
      checkb "nothing quarantined on resume" true
        (resumed.A.Report.failures = []);
      checki "two sections replayed" 2 (List.length resumed.A.Report.replayed);
      checks "resumed report byte-identical" baseline resumed.A.Report.report

(* qcheck: any subset of pre-completed cells in the checkpoint yields
   the same results as computing everything *)
let resume_subset_test =
  QCheck.Test.make ~name:"resume from any checkpoint subset is identical"
    ~count:20
    QCheck.(list_of_size (Gen.int_range 0 12) (int_range 0 11))
    (fun subset ->
      let baseline = run_cells () in
      let path = tmp_path () in
      Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
      let ck = Ck.create ~path ~fingerprint:"subset" in
      (* pre-record the subset from the baseline run's own payloads *)
      List.iter
        (fun i ->
          match List.assoc i baseline with
          | S.Completed s -> Ck.record ck ~id:(cell_id i) s
          | S.Quarantined _ -> ())
        (List.sort_uniq compare subset);
      let resumed = run_cells ~checkpoint:ck () in
      completed_cells resumed = completed_cells baseline)

(* ------------------------------------------------------------------ *)
(* Prng.derive                                                         *)
(* ------------------------------------------------------------------ *)

let test_derive_stability () =
  let draws key =
    let g = Prng.derive ~seed:11 ~key in
    List.init 5 (fun _ -> Prng.next_int64 g)
  in
  checkb "same key, same stream" true (draws "task-a" = draws "task-a");
  checkb "different key, different stream" true (draws "task-a" <> draws "task-b");
  let g1 = Prng.derive ~seed:11 ~key:"k" in
  let g2 = Prng.derive ~seed:12 ~key:"k" in
  checkb "seed matters" true (Prng.next_int64 g1 <> Prng.next_int64 g2)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_supervisor"
    [
      ( "fault",
        [
          Alcotest.test_case "spec parsing" `Quick test_fault_spec;
          Alcotest.test_case "deterministic" `Quick test_fault_deterministic;
          Alcotest.test_case "first attempt only" `Quick
            test_fault_first_attempt_only;
          Alcotest.test_case "kill list" `Quick test_fault_kill;
          Alcotest.test_case "validation" `Quick test_fault_validation;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "jitter-free schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "policy validation" `Quick test_policy_validation;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "all success" `Quick test_all_success;
          Alcotest.test_case "chaos converges" `Quick test_chaos_converges;
          Alcotest.test_case "no retries -> quarantine" `Quick
            test_chaos_without_retries_quarantines;
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "closing boundary timeout" `Quick
            test_timeout_closing_boundary;
          Alcotest.test_case "deadline miss not retried" `Quick
            test_timeout_not_retried;
          Alcotest.test_case "duplicate ids" `Quick test_duplicate_ids_rejected;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "fingerprint guard" `Quick
            test_checkpoint_fingerprint_guard;
          Alcotest.test_case "corrupt/missing" `Quick
            test_checkpoint_corrupt_and_missing;
        ] );
      ( "resume-determinism",
        [
          Alcotest.test_case "chaos identical at j1/j8" `Quick
            test_sweep_chaos_identical_any_width;
          Alcotest.test_case "kill+resume, jobs 1" `Quick test_resume_j1;
          Alcotest.test_case "kill+resume, jobs 8" `Quick test_resume_j8;
          Alcotest.test_case "kill+resume, jobs 1, chaos" `Quick
            test_resume_j1_chaos;
          Alcotest.test_case "kill+resume, jobs 8, chaos" `Quick
            test_resume_j8_chaos;
          Alcotest.test_case "suite kill+resume" `Quick test_suite_kill_resume;
        ] );
      ("resume-qcheck", qsuite [ resume_subset_test ]);
      ( "prng",
        [ Alcotest.test_case "derive stability" `Quick test_derive_stability ] );
    ]
