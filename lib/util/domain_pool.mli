(** Fixed-size worker pool over OCaml 5 domains.

    A dependency-free thread pool built on [Domain], [Mutex] and
    [Condition].  Workers pull tasks from a shared FIFO queue; results
    come back through futures, so [parallel_map] always returns results
    in input order regardless of which domain finished first.

    Determinism contract: the pool never reorders *results* — only the
    wall-clock interleaving of side effects differs between pool sizes.
    Callers that need bit-for-bit reproducible randomness must derive
    one {!Prng} stream per task *before* submission (see
    [Ccache_sim.Sweep.run_supervised], which {!Prng.derive}s each
    cell's stream from the seed and the cell's id); with that
    discipline a run with 1 worker and a run with 8 workers produce
    identical output.

    Tasks must not themselves [submit]/[await] on the same pool: a task
    blocking on a future that only its own worker could run can
    deadlock the pool.  Fan-out happens at one level only. *)

exception Pool_shutdown
(** Raised by {!await} on a future whose task was discarded by
    {!shutdown_now} before a worker picked it up.  Guarantees an
    awaiter of a cancelled task raises rather than hangs. *)

type t
(** A pool of worker domains. *)

type 'a future
(** The pending result of a submitted task. *)

val default_size : unit -> int
(** Pool size used when [create] is given no [?size]: the value of the
    [CCACHE_JOBS] environment variable if it parses as a positive
    integer, otherwise [Domain.recommended_domain_count ()].  Always in
    [\[1, 64\]]. *)

val create : ?size:int -> unit -> t
(** [create ~size ()] makes a pool of [size] worker domains (clamped to
    [\[1, 64\]]).  Without [?size], uses {!default_size}.  The domains
    themselves are spawned on the first {!submit}: an idle domain still
    joins every stop-the-world minor-GC barrier, so a pool whose maps
    all take the serial-fallback path (see {!parallel_map})
    never pays for domains it does not use. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  @raise Invalid_argument if the pool was shut
    down. *)

val await : 'a future -> 'a
(** Block until the task completes.  If the task raised, the exception
    is re-raised here with its original backtrace.  [await] may be
    called any number of times; subsequent calls return (or re-raise)
    immediately. *)

val parallel_map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** Map [f] over the list on the pool's workers, one task per element.
    Results are in input order.  All elements run to completion even
    when some raise; the first (in input order) exception is then
    re-raised.

    When [min (size t) hw] is [<= 1], where [hw] is the
    [Domain.recommended_domain_count] observed at {!create}, runs
    serially on the calling domain (same results, same exception
    semantics) rather than shipping tasks to workers that would contend
    for the one core: on OCaml 5 every allocating domain joins each
    minor-GC stop-the-world barrier, so two domains time-slicing one
    core are measurably {e slower} than one. *)

val shutdown : t -> unit
(** Graceful shutdown: workers finish every queued task, then exit and
    are joined, so no future submitted before the call is left pending
    — every [await] returns (or re-raises) normally.  Idempotent: a
    second call (of either flavour) is a no-op.  [submit] after
    [shutdown] raises [Invalid_argument]. *)

val shutdown_now : t -> unit
(** Abortive shutdown: tasks already running complete (their futures
    resolve normally), but queued tasks are discarded and their
    futures fail — [await] on them raises {!Pool_shutdown} rather than
    hanging.  Idempotent, and freely mixable with {!shutdown} (the
    first call wins). *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards, including on exception. *)

val map_list : ?pool:t -> f:('a -> 'b) -> 'a list -> 'b list
(** [List.map] when [pool] is [None], {!parallel_map} otherwise.  The
    convenience entry point for code with an optional [?pool]
    parameter.  Records the element count in the [pool/map_blocks] obs
    counter identically at every execution width, so the counter
    matches across [--jobs] settings. *)
