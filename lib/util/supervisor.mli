(** Supervised task execution over {!Domain_pool}: per-task deadlines
    with cooperative cancellation, bounded deterministic retry,
    crash quarantine, and checkpoint replay.

    {2 Failure model (DESIGN.md Section 8)}

    A task is a named thunk [{id; run}].  The supervisor classifies
    every raised exception:

    - {b retried}: {!Fault.Injected_transient} and {!Timed_out} — the
      only failures that can legitimately differ between attempts
      (injected transients vanish after attempt 0 by construction;
      deadline misses depend on wall-clock load).  Retries are bounded
      by [max_retries] with exponential backoff.
    - {b quarantined immediately}: everything else.  Tasks are
      deterministic functions of their inputs and their {!Prng} stream,
      so a real exception is permanent by construction; re-running it
      would only burn the retry budget.  The task's slot in the result
      list becomes [Quarantined], every other task still completes.

    {2 Why determinism survives retries}

    Each attempt re-derives the task's PRNG stream from its id
    ({!Prng.derive}) rather than mutating a shared stream, so attempt
    [n] sees exactly the state attempt [0] saw; backoff delays are a
    pure function of [(policy, task id, attempt)] (jitter-free by
    default, seeded jitter otherwise); and results are collected in
    input order by {!Domain_pool.map_list}.  Hence a run with injected
    transient faults and retries produces output byte-identical to a
    fault-free run at any pool width.

    {2 Checkpoint replay}

    With [?checkpoint] (and its [?codec]), completed tasks are recorded
    as encoded payloads and flushed atomically; on a later run, tasks
    whose id is already stored are {e replayed} — decoded and returned
    without executing — which is what makes [--resume] bit-for-bit. *)

exception Timed_out of { task : string; elapsed_s : float }
(** Raised by {!check} (and at the closing task boundary) once the
    attempt's deadline has passed.  Retryable. *)

type policy = {
  max_retries : int;  (** extra attempts after the first (>= 0) *)
  timeout_s : float option;  (** per-attempt cooperative deadline *)
  backoff_base_s : float;  (** delay before the first retry *)
  backoff_factor : float;  (** multiplier per subsequent retry (>= 1) *)
  backoff_max_s : float;  (** cap on any single delay *)
  jitter : float;
      (** 0 (default) = jitter-free; otherwise the fraction by which a
          delay may deviate, drawn from a stream keyed on
          [(seed, task, attempt)] — deterministic either way *)
  seed : int;  (** seeds the jitter stream only *)
}

val default_policy : policy
(** 3 retries, no deadline, 50 ms base doubling to a 1 s cap, no
    jitter. *)

val validate_policy : policy -> unit
(** The check {!run} applies to its [?policy]: retries [>= 0], a
    finite positive deadline, finite non-negative backoff times, a
    finite factor [>= 1] and jitter in [\[0, 1\]].  Exposed so
    front ends can reject bad flags before any task runs.
    @raise Invalid_argument naming the offending field. *)

val backoff_delay : policy -> task:string -> attempt:int -> float
(** Pure backoff schedule: the delay slept after 0-based [attempt]
    fails (i.e. before attempt [attempt + 1]).  Exposed so tests can
    assert the exact schedule. *)

(** {1 Task context} *)

type ctx
(** Handed to each attempt: identity plus the cooperative deadline. *)

val check : ctx -> unit
(** Cooperative cancellation point: long-running tasks call this
    periodically.  @raise Timed_out once the attempt deadline has
    passed.  The supervisor also checks at the closing task boundary,
    so even non-cooperative tasks cannot return past their deadline. *)

(** {1 Outcomes and events} *)

type failure = { task : string; attempts : int; error : string }

type 'a outcome =
  | Completed of 'a
  | Quarantined of failure
      (** the task kept raising (or raised a permanent error); the rest
          of the batch completed normally *)

type event =
  | Retrying of { task : string; attempt : int; delay_s : float; error : string }
  | Gave_up of failure
  | Replayed of { task : string }  (** served from the checkpoint *)

type 'a task = { id : string; run : ctx -> 'a }

type 'a codec = { encode : 'a -> string; decode : string -> 'a option }
(** Payload codec for checkpointing.  [decode] returning [None] marks
    the stored entry undecodable; the task is then recomputed. *)

val string_codec : string codec
(** Identity codec for tasks that already produce bytes (e.g. rendered
    report sections). *)

val completed : 'a outcome list -> 'a list
val failures : 'a outcome list -> failure list

val run :
  ?pool:Domain_pool.t ->
  ?policy:policy ->
  ?fault:Fault.t ->
  ?checkpoint:Checkpoint.t ->
  ?codec:'a codec ->
  ?on_event:(event -> unit) ->
  'a task list ->
  'a outcome list
(** Run every task (on [?pool]'s workers when given, else inline),
    returning outcomes in input order.  [?fault] injects faults at
    attempt boundaries; [?checkpoint] + [?codec] enable replay and
    recording (the checkpoint is flushed before returning, so a batch
    with quarantined tasks still leaves its partial results on disk).
    [?on_event] observes retries, quarantines and replays; callbacks
    are serialised under a mutex but may fire from worker domains —
    don't print to stdout from them (stderr is fine).
    @raise Invalid_argument on duplicate task ids, a [?checkpoint]
    without [?codec], or a malformed policy. *)
