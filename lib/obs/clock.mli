(** Clock capability for observability timestamps.

    The determinism contract (DESIGN.md Section 9): wall-clock never
    reaches simulation state.  Timestamps exist only to annotate
    metrics and spans, and every reader takes the clock as an explicit
    value of type [t], so deterministic clocks can be substituted in
    tests.  This module is the single sanctioned wall-clock read in
    [lib/] — the [no-wall-clock] lint rule flags
    [Unix.gettimeofday]/[Unix.time]/[Sys.time] anywhere else. *)

type t = unit -> float
(** A clock: returns a timestamp in seconds.  What the epoch means is
    the clock's business; consumers may only subtract and compare. *)

val now : t -> float
(** [now c] reads the clock. *)

val wall : t
(** Raw wall-clock seconds (Unix epoch).  Observability only. *)

val monotonic : t
(** Wall clock monotonised through a global latch: never decreases,
    even across system clock adjustments.  The default span clock. *)

val counting : unit -> t
(** [counting ()] returns [0.], [1.], [2.], ... on successive reads
    (atomically, so it is usable across domains).  Deterministic
    substitute for [monotonic] in tests. *)
