(** Supervised-runner wiring shared by the binaries: one cmdliner term
    for the [--jobs], [--timeout], [--retries], [--backoff], [--chaos],
    [--kill], [--checkpoint] and [--resume] flags of [sweep], [serve]
    and [experiments], the stderr event log, and the quarantine report.
    A malformed value, or an output path that cannot be written, is a
    usage error — a message on stderr and exit 2 — never an uncaught
    exception. *)

open Cmdliner
module U = Ccache_util

let usage_error msg =
  Fmt.epr "%s@." msg;
  exit 2

(** Exit 2, naming [flag] and its [path], unless [file] (default
    [path]) can be opened for writing, so that an output the run would
    write only at its end fails before the work starts.  An existing
    file is opened without truncation and left as it was; a file the
    probe creates is removed again. *)
let check_writable ?file ~flag path =
  let file = Option.value file ~default:path in
  let existed = Sys.file_exists file in
  match open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 file with
  | oc ->
      close_out oc;
      if not existed then Sys.remove file
  | exception Sys_error msg ->
      usage_error (Printf.sprintf "%s %s: cannot write (%s)" flag path msg)

type t = {
  pool : U.Domain_pool.t option;
  policy : U.Supervisor.policy;
  fault : U.Fault.t;
  checkpoint_path : string option;
  resume : bool;
}

(* [--jobs N]: run on the calling domain at 1, one domain per core
   ({!Ccache_util.Domain_pool.default_size}) at 0. *)
let pool ~jobs =
  if jobs < 0 then usage_error "--jobs must be >= 0";
  if jobs = 1 then None
  else
    Some (U.Domain_pool.create ?size:(if jobs = 0 then None else Some jobs) ())

let policy ~timeout ~retries ~backoff =
  if retries < 0 then usage_error "--retries must be >= 0";
  let p =
    { U.Supervisor.max_retries = retries; timeout_s = timeout; backoff_base_s = backoff }
  in
  (try U.Supervisor.validate_policy p with Invalid_argument msg -> usage_error msg);
  p

(* [--chaos SEED:RATE] (else [CCACHE_CHAOS]), plus one permanent crash
   per [--kill ID]. *)
let fault ~chaos ~kill =
  let base =
    match chaos with
    | Some spec -> (
        match U.Fault.of_spec spec with Ok f -> f | Error e -> usage_error e)
    | None -> (
        match U.Fault.from_env () with
        | Ok f -> Option.value f ~default:U.Fault.none
        | Error e -> usage_error e)
  in
  if kill = [] then base else U.Fault.kill base kill

let make jobs timeout retries backoff chaos kill checkpoint_path resume =
  let pool = pool ~jobs in
  let policy = policy ~timeout ~retries ~backoff in
  let fault = fault ~chaos ~kill in
  (match checkpoint_path with
  | None -> if resume then usage_error "--resume requires --checkpoint FILE"
  | Some p ->
      (* a snapshot is written to FILE.tmp, then renamed over FILE; the
         probe leaves FILE itself unwritten *)
      if Sys.file_exists p then check_writable ~flag:"--checkpoint" p;
      check_writable ~file:(p ^ ".tmp") ~flag:"--checkpoint" p);
  { pool; policy; fault; checkpoint_path; resume }

let term =
  let default = U.Supervisor.default_policy in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the tasks (experiments, sweep cells or serve shards) on \
             $(docv) worker domains (default 1 = sequential, 0 = one per \
             core, i.e. CCACHE_JOBS or the recommended domain count).  \
             Output is identical at every N.")
  in
  let timeout =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"S"
          ~doc:
            "Per-attempt task deadline in seconds, checked when the task \
             returns; a task that returns past it is quarantined at once, \
             not retried, because every retry would run it whole again \
             (default: none).")
  in
  let retries =
    Arg.(
      value & opt int default.U.Supervisor.max_retries
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget for transient faults (default 3).")
  in
  let backoff =
    Arg.(
      value & opt float default.U.Supervisor.backoff_base_s
      & info [ "backoff" ] ~docv:"S"
          ~doc:
            "Base backoff before the first retry, in seconds; doubles per \
             retry, capped at 1s (default 0.05).  Deterministic and \
             jitter-free.")
  in
  let chaos =
    Arg.(
      value & opt (some string) None
      & info [ "chaos" ] ~docv:"SEED:RATE"
          ~doc:
            "Deterministic fault injection at task boundaries (transient \
             exceptions and short delays).  Falls back to the \
             $(b,CCACHE_CHAOS) environment variable.  With retries the \
             output is byte-identical to a fault-free run.")
  in
  let kill =
    Arg.(
      value & opt_all string []
      & info [ "kill" ] ~docv:"ID"
          ~doc:
            "Inject a permanent crash into the task with id $(docv): an \
             experiment ('e2'), a sweep cell ('lru/k=64') or a serve \
             shard ('shard/1'); repeatable.  The task is quarantined, the \
             rest complete, and the exit code is 3.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Snapshot completed tasks to $(docv) (an atomic write on every \
             completion), making the run resumable.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay tasks already recorded in --checkpoint FILE bit-for-bit \
             and compute only the rest.  Refuses a checkpoint written by a \
             different configuration.")
  in
  Term.(
    const make $ jobs $ timeout $ retries $ backoff $ chaos $ kill $ checkpoint
    $ resume)

(** The [--checkpoint] file for a run configuration digested by
    [fingerprint]: with [--resume], the tasks already in it are replayed
    (a missing file starts fresh), provided it was written under the
    same [fingerprint]. *)
let checkpoint t ~fingerprint =
  match t.checkpoint_path with
  | None -> None
  | Some path when t.resume -> (
      match U.Checkpoint.load_or_create ~path ~fingerprint with
      | Ok ck -> Some ck
      | Error e -> usage_error ("cannot resume: " ^ e))
  | Some path -> Some (U.Checkpoint.create ~path ~fingerprint)

(** One stderr line per supervisor event. *)
let on_event = function
  | U.Supervisor.Retrying { task; attempt; delay_s; error } ->
      Fmt.epr "[supervisor] %s: attempt %d after %.3fs backoff (%s)@." task
        attempt delay_s error
  | U.Supervisor.Gave_up { task; attempts; error } ->
      Fmt.epr "[supervisor] %s: quarantined after %d attempt(s): %s@." task
        attempts error
  | U.Supervisor.Replayed { task } ->
      Fmt.epr "[supervisor] %s: replayed from checkpoint@." task

(** The exit code of a supervised run: 0 when no task was quarantined;
    otherwise 3, after one stderr line per quarantined task and a hint
    on how to finish the run. *)
let report t failures =
  if failures = [] then 0
  else begin
    List.iter
      (fun { U.Supervisor.task; attempts; error } ->
        Fmt.epr "quarantined: %s (after %d attempt(s)): %s@." task attempts
          error)
      failures;
    (match t.checkpoint_path with
    | Some p ->
        Fmt.epr
          "partial results checkpointed to %s; rerun with --checkpoint %s \
           --resume to complete@."
          p p
    | None -> Fmt.epr "hint: rerun with --checkpoint FILE to make the run resumable@.");
    3
  end
