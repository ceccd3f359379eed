(** Regenerate the experiment tables (DESIGN.md Section 4 /
    EXPERIMENTS.md).

    Usage:
      experiments [--full | --quick] [--markdown] [--jobs N] [ID ...]
                  [--timeout S] [--retries N] [--backoff S] [--jitter J]
                  [--chaos SEED:RATE] [--kill ID]
                  [--checkpoint FILE] [--resume]

    IDs are e1..e15; with none, runs the whole suite in DESIGN.md
    order.  [--jobs N] runs the selected experiments on N worker
    domains (0 = one per core); the printed report is byte-identical
    at every job count because outputs are collected first and
    rendered in spec order.

    The suite always runs under the supervised runner: injected
    transients and deadline misses are retried with deterministic
    backoff, and a permanently-failing experiment is quarantined (its
    section omitted, a report on stderr, exit code 3) while the rest of
    the suite completes.  [--chaos] / CCACHE_CHAOS inject deterministic
    faults for testing; with the default retry budget the report is
    byte-identical to a fault-free run.  [--checkpoint] snapshots
    completed sections atomically; [--resume] replays them bit-for-bit. *)

open Cmdliner
module A = Ccache_analysis
module U = Ccache_util

let quarantine_exit = 3

let run full quick markdown jobs timeout retries backoff jitter chaos kill
    checkpoint_path resume trace_cache trace_out metrics_out ids =
  if full && quick then begin
    Fmt.epr "--full and --quick are mutually exclusive@.";
    exit 2
  end;
  Ccache_trace.Trace_cache.set_dir trace_cache;
  let size = if full then A.Experiment.Full else A.Experiment.Quick in
  let fmt = if markdown then A.Report.Markdown else A.Report.Text in
  let specs =
    match ids with
    | [] -> A.Suite.all
    | ids ->
        List.map
          (fun id ->
            match A.Suite.find (String.lowercase_ascii id) with
            | Some s -> s
            | None ->
                Fmt.epr "unknown experiment %S; known: %s@." id
                  (String.concat ", " A.Suite.ids);
                exit 2)
          ids
  in
  let pool = Supervisor_args.pool ~jobs in
  let obs = Obs_args.setup ~trace_out ~metrics_out in
  let fault = Supervisor_args.fault ~chaos ~kill in
  let policy = Supervisor_args.policy ~jitter ~timeout ~retries ~backoff () in
  let fingerprint = A.Report.fingerprint ~fmt ~size specs in
  let checkpoint =
    Supervisor_args.checkpoint ~path:checkpoint_path ~resume ~fingerprint
  in
  let { A.Report.report; failures; replayed } =
    A.Report.run_suite_supervised ~fmt ?pool ~policy ~fault ?checkpoint
      ~on_event:Supervisor_args.on_event ~size specs
  in
  print_string report;
  (* the map joined every worker domain: shards are complete *)
  Obs_args.finish obs;
  if replayed <> [] then
    Fmt.epr "[supervisor] replayed %d section(s) from %s@."
      (List.length replayed)
      (Option.value checkpoint_path ~default:"checkpoint");
  if failures = [] then 0
  else begin
    List.iter
      (fun { U.Supervisor.task; attempts; error } ->
        Fmt.epr "quarantined: %s (after %d attempt(s)): %s@." task attempts
          error)
      failures;
    (match checkpoint_path with
    | Some p ->
        Fmt.epr
          "partial results checkpointed to %s; rerun with --checkpoint %s \
           --resume to complete@."
          p p
    | None ->
        Fmt.epr "hint: rerun with --checkpoint FILE to make the run resumable@.");
    quarantine_exit
  end

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Full-size runs (EXPERIMENTS.md scale).")

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Quick-size runs (the default; rejects --full).")

let markdown =
  Arg.(value & flag & info [ "markdown" ] ~doc:"Emit markdown tables.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run experiments on $(docv) worker domains (default 1 = \
           sequential, 0 = one per core, i.e. CCACHE_JOBS or the \
           recommended domain count).  Output is identical at every N.")

let timeout =
  Arg.(
    value & opt (some float) None
    & info [ "timeout" ] ~docv:"S"
        ~doc:
          "Per-attempt deadline in seconds; an experiment past it is \
           retried, then quarantined (default: none).")

let retries =
  Arg.(
    value & opt int U.Supervisor.default_policy.U.Supervisor.max_retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry budget for transient faults and deadline misses \
           (default 3).  Backoff is deterministic and jitter-free.")

let backoff =
  Arg.(
    value & opt float U.Supervisor.default_policy.U.Supervisor.backoff_base_s
    & info [ "backoff" ] ~docv:"S"
        ~doc:
          "Base backoff before the first retry, in seconds; doubles per \
           retry, capped at 1s (default 0.05).")

let jitter =
  Arg.(
    value & opt float 0.
    & info [ "jitter" ] ~docv:"J"
        ~doc:
          "Seeded backoff jitter fraction in [0,1] (default 0 = \
           jitter-free; any value stays deterministic).")

let chaos =
  Arg.(
    value & opt (some string) None
    & info [ "chaos" ] ~docv:"SEED:RATE"
        ~doc:
          "Deterministic fault injection at task boundaries (transient \
           exceptions and short delays).  Falls back to the \
           $(b,CCACHE_CHAOS) environment variable.  With retries \
           enabled the report is byte-identical to a fault-free run.")

let kill =
  Arg.(
    value & opt_all string []
    & info [ "kill" ] ~docv:"ID"
        ~doc:
          "Inject a permanent crash into experiment $(docv) (repeatable). \
           The cell is quarantined; the rest of the suite completes and \
           the exit code is 3.")

let checkpoint =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Snapshot completed sections to $(docv) (atomic write on every \
           completion), making the run resumable.")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay sections already recorded in --checkpoint FILE \
           bit-for-bit and compute only the rest.  Refuses a checkpoint \
           written by a different configuration.")

let trace_cache =
  Arg.(
    value & opt (some string) None
    & info [ "trace-cache" ] ~docv:"DIR"
        ~doc:
          "Cache generated workload traces as .ctrace binaries under \
           $(docv); repeated runs mmap the stored traces instead of \
           regenerating them.  The report is byte-identical either way.")

let ids =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"ID"
        ~doc:
          (Printf.sprintf "Experiment ids (%s)."
             (String.concat ", " A.Suite.ids)))

let trace_out = Obs_args.trace_out
let metrics_out = Obs_args.metrics_out

let cmd =
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce the convex-caching experiment suite")
    Term.(
      const run $ full $ quick $ markdown $ jobs $ timeout $ retries $ backoff
      $ jitter $ chaos $ kill $ checkpoint $ resume $ trace_cache $ trace_out
      $ metrics_out $ ids)

let () = exit (Cmd.eval' cmd)
