(** Fork-join parallel map over OCaml 5 domains.

    A pool is only a width.  {!map_list} given one runs its elements on
    that many domains at most, spawned for the call and joined before it
    returns: the calling domain works alongside [width - 1] spawned
    ones, each claiming the next element through one shared [Atomic]
    counter and writing its result into that element's own slot.
    Results therefore come back in input order whichever domain ran
    them, and no domain outlives the map.

    Determinism contract: the map never reorders *results* — only the
    wall-clock interleaving of side effects differs between widths.
    Callers that need bit-for-bit reproducible randomness must derive
    one {!Prng} stream per element from the element itself, never share
    one across the map (see {!Fault.at_boundary}, which {!Prng.derive}s
    its stream from the task id and attempt); with that discipline a
    run at width 1 and a run at width 8 produce identical output. *)

type t
(** A map width: the most domains a pooled {!map_list} may use. *)

val default_size : unit -> int
(** Width used when [create] is given no [?size]: the value of the
    [CCACHE_JOBS] environment variable if it parses as a positive
    integer, otherwise [Domain.recommended_domain_count ()].  Always in
    [\[1, 64\]]. *)

val create : ?size:int -> unit -> t
(** [create ~size ()] is a width of [size] domains (clamped to
    [\[1, 64\]]).  Without [?size], uses {!default_size}.  Creating a
    width spawns nothing. *)

val size : t -> int
(** The width, in domains. *)

val map_list : ?pool:t -> f:('a -> 'b) -> 'a list -> 'b list
(** Without [pool], [List.map f xs].  With one, [f] runs on
    [min (size pool) hw (List.length xs)] domains, where [hw] is
    [Domain.recommended_domain_count ()]; every element runs even when
    some raise, and the first exception in input order is then
    re-raised with its backtrace.  A width of 1 runs every element on
    the calling domain: on OCaml 5 each allocating domain joins every
    minor-GC stop-the-world barrier, so two domains time-slicing one
    core are measurably {e slower} than one.  A [Domain.spawn] that
    fails narrows the map to the domains already running; the result
    is the same.

    Records the element count in the [pool/map_blocks] obs counter
    identically at every width, so the counter matches across [--jobs]
    settings; with a pool, [pool/tasks_run] and the [pool/occupancy]
    histogram (domains busy when an element starts) measure the
    schedule. *)
