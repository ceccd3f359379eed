(** Rendering experiment outputs as text or markdown (EXPERIMENTS.md
    regeneration). *)

type format = Text | Markdown

val render_output : format -> Experiment.output -> string

(** {1 Supervised suites} *)

type supervised = {
  report : string;
      (** completed sections concatenated in spec order — the same bytes
          at every pool width, whatever faults were injected and retried
          along the way *)
  failures : Ccache_util.Supervisor.failure list;
      (** quarantined experiments, in spec order *)
  replayed : string list;  (** ids served from the checkpoint *)
}

val fingerprint :
  fmt:format -> size:Experiment.size -> Experiment.t list -> string
(** Single-line digest of everything that affects section bytes (format,
    size, spec ids) — the {!Ccache_util.Checkpoint} fingerprint for
    supervised suite runs. *)

val run_suite_supervised :
  ?fmt:format ->
  ?pool:Ccache_util.Domain_pool.t ->
  ?policy:Ccache_util.Supervisor.policy ->
  ?fault:Ccache_util.Fault.t ->
  ?checkpoint:Ccache_util.Checkpoint.t ->
  ?on_event:(Ccache_util.Supervisor.event -> unit) ->
  size:Experiment.size ->
  Experiment.t list ->
  supervised
(** Run and render a suite under supervision (see
    [Ccache_util.Supervisor] for the failure model).  Rendering happens
    inside each task, so with [?checkpoint] the snapshot stores each
    section's final bytes and a later resume replays them verbatim —
    the checkpoint must have been created with {!fingerprint} for this
    exact configuration. *)
