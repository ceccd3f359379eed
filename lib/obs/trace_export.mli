(** Chrome trace-event JSON exporter (chrome://tracing / Perfetto).

    Schema per event — fixed field order, golden-tested:
    [{"name":..,"cat":..,"ph":"X"|"i","ts":micros,("dur":micros |
    "s":"t"),"pid":1,"tid":domain,"args":{..}}].  Timestamps are
    microseconds relative to [?origin] (default: the earliest span
    start). *)

val to_json : ?origin:float -> Sink.span list -> string
(** Render spans (pass them in {!Span.collect} order for a
    deterministic document). *)

val write : path:string -> Sink.span list -> unit
(** [to_json] (default origin) straight to a file. *)
