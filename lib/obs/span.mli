(** Span tracing: nested timed regions and instant events.

    No-ops while {!Control.enabled} is false.  Parent/child nesting is
    per-domain and maintained by a stack, so it is well-formed by
    construction even across exceptions (the closing record happens in
    a [Fun.protect] finaliser).

    Timestamps come from the configured {!Control.clock}; tests install
    a {!Clock.counting} clock with [Control.with_enabled ~clock] so
    exported traces are byte-stable. *)

val with_ :
  ?cat:string ->
  ?args:(string * Sink.arg) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_ name f] runs [f] inside a span.  The span is recorded even
    if [f] raises. *)

val instant : ?cat:string -> ?args:(string * Sink.arg) list -> string -> unit
(** Record a zero-duration event, parented to the innermost open span
    on this domain. *)

val collect : unit -> Sink.span list
(** All recorded spans, merged across shards and sorted by
    [(domain id, seq)] — a total, deterministic order. *)
