(** Shared observability wiring for both binaries: the
    [--trace-out]/[--metrics-out] flags, the [CCACHE_TRACE] fallback,
    and the end-of-run export.  Recording is enabled only when at least
    one output is requested, so the default path keeps the
    zero-overhead-off guarantee (and byte-identical reports). *)

open Cmdliner

type t = { trace : string option; metrics : string option }

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record spans and write a Chrome trace-event JSON to $(docv) \
           (load it in chrome://tracing or Perfetto).  Falls back to \
           the $(b,CCACHE_TRACE) environment variable.  Tracing is off \
           (and costs nothing) unless one of the two is set.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Record counters/gauges/histograms and write the merged \
           snapshot to $(docv): markdown tables if $(docv) ends in \
           .md, flat JSON otherwise.")

(** Resolve the flags (plus [CCACHE_TRACE]), exit 2 if an output path
    cannot be written (before the run, not after it), and flip
    recording on iff any output was requested. *)
let setup ~trace_out ~metrics_out =
  let trace =
    match trace_out with
    | Some path ->
        Supervisor_args.check_writable ~flag:"--trace-out" path;
        Some path
    | None ->
        let t = Ccache_obs.Control.trace_path_from_env () in
        Option.iter (Supervisor_args.check_writable ~flag:"CCACHE_TRACE") t;
        t
  in
  Option.iter (Supervisor_args.check_writable ~flag:"--metrics-out") metrics_out;
  let cfg = { trace; metrics = metrics_out } in
  if cfg.trace <> None || cfg.metrics <> None then Ccache_obs.Control.enable ();
  cfg

(** Export whatever was recorded.  Call once, after all worker domains
    have joined (shards are merged at this point). *)
let finish cfg =
  (match cfg.trace with
  | Some path ->
      Ccache_obs.Trace_export.write ~path (Ccache_obs.Span.collect ());
      Fmt.epr "[obs] wrote trace to %s@." path
  | None -> ());
  match cfg.metrics with
  | Some path ->
      let snap = Ccache_obs.Metrics.snapshot () in
      let body =
        if Filename.check_suffix path ".md" then
          Ccache_obs.Metrics_export.to_markdown snap
        else Ccache_obs.Metrics_export.to_json snap
      in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc body);
      Fmt.epr "[obs] wrote metrics to %s@." path
  | None -> ()
