(** Render a {!Metrics.snapshot} as flat JSON or a markdown table.

    Output is byte-stable for a given snapshot: sections and entries
    are name-sorted (the snapshot's own order) and numbers use fixed
    formatting. *)

val to_json : Metrics.snapshot -> string
(** [{"counters":{..},"gauges":{..},"histograms":{..}}] with
    name-sorted keys. *)

val to_markdown : Metrics.snapshot -> string
