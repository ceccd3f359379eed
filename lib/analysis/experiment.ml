(** Experiment descriptors (see DESIGN.md Section 4).

    Each experiment is a pure function from a size knob to a set of
    tables; `bin/experiments.ml` prints them and EXPERIMENTS.md records
    a reference run.  [Quick] sizes keep the full suite under ~a minute
    for `dune runtest`-adjacent use; [Full] sizes are what
    EXPERIMENTS.md reports. *)

type size = Quick | Full

type output = {
  id : string;
  title : string;
  tables : Ccache_util.Ascii_table.t list;
  notes : string list;  (** prose conclusions, one line each *)
}

type t = {
  id : string;
  title : string;
  claim : string;  (** which paper statement this exercises *)
  run : size -> output;
}

let output ~id ~title ?(notes = []) tables = { id; title; tables; notes }

(** Run independent experiments, optionally on a domain pool.  Outputs
    come back in spec order, so callers can collect-then-print and get
    byte-identical reports at any pool size (each experiment seeds its
    own PRNGs internally and shares no mutable state). *)
let run_all ?pool ~size specs =
  Ccache_util.Domain_pool.map_list ?pool
    ~f:(fun e ->
      Ccache_obs.Span.with_ ~cat:"experiment"
        ~args:[ ("id", Ccache_obs.Sink.Str e.id) ]
        ("experiment:" ^ e.id)
        (fun () -> e.run size))
    specs
