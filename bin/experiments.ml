(** Regenerate the experiment tables (DESIGN.md Section 4 /
    EXPERIMENTS.md).

    Usage:
      experiments [--full | --quick] [--markdown] [--jobs N] [ID ...]
                  [--timeout S] [--retries N] [--backoff S]
                  [--chaos SEED:RATE] [--kill ID]
                  [--checkpoint FILE] [--resume]

    IDs are e1..e15; with none, runs the whole suite in DESIGN.md
    order.  [--jobs N] runs the selected experiments on N worker
    domains (0 = one per core); the printed report is byte-identical
    at every job count because outputs are collected first and
    rendered in spec order.

    The suite always runs under the supervised runner: injected
    transients are retried with deterministic backoff, and a
    permanently-failing or overrunning experiment is quarantined (its
    section omitted, a report on stderr, exit code 3) while the rest of
    the suite completes.  [--chaos] / CCACHE_CHAOS inject deterministic
    faults for testing; with the default retry budget the report is
    byte-identical to a fault-free run.  [--checkpoint] snapshots
    completed sections atomically; [--resume] replays them bit-for-bit. *)

open Cmdliner
module A = Ccache_analysis

let run full quick markdown sup trace_cache trace_out metrics_out ids =
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
  let obs = Obs_args.setup ~trace_out ~metrics_out in
  let fingerprint = A.Report.fingerprint ~fmt ~size specs in
  let { Supervisor_args.pool; policy; fault; checkpoint_path; _ } = sup in
  let checkpoint = Supervisor_args.checkpoint sup ~fingerprint in
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
  Supervisor_args.report sup failures

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Full-size runs (EXPERIMENTS.md scale).")

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Quick-size runs (the default; rejects --full).")

let markdown =
  Arg.(value & flag & info [ "markdown" ] ~doc:"Emit markdown tables.")

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

let cmd =
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce the convex-caching experiment suite")
    Term.(
      const run $ full $ quick $ markdown $ Supervisor_args.term $ trace_cache
      $ Obs_args.trace_out $ Obs_args.metrics_out $ ids)

let () = exit (Cmd.eval' cmd)
