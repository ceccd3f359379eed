(** Experiment descriptors (see DESIGN.md Section 4).  [Quick] sizes
    keep the full suite test-friendly; [Full] sizes are what
    EXPERIMENTS.md records. *)

type size = Quick | Full

type output = {
  id : string;
  title : string;
  tables : Ccache_util.Ascii_table.t list;
  notes : string list;  (** one-line prose conclusions *)
}

type t = {
  id : string;
  title : string;
  claim : string;  (** which paper statement this exercises *)
  run : size -> output;
}

val output :
  id:string ->
  title:string ->
  ?notes:string list ->
  Ccache_util.Ascii_table.t list ->
  output

val run_all :
  ?pool:Ccache_util.Domain_pool.t ->
  size:size ->
  t list ->
  output list
(** Run experiments (in parallel when [?pool] is given), returning
    outputs in spec order.  Every experiment derives its randomness
    from fixed seeds, so the outputs are identical at any pool size. *)
