(** Supervised task execution over {!Domain_pool}: per-task deadlines,
    bounded deterministic retry, crash quarantine, and checkpoint
    replay.

    {2 Failure model (DESIGN.md Section 8)}

    A task is a named thunk [{id; run}].  The supervisor classifies
    every raised exception:

    - {b retried}: {!Fault.Injected_transient} and {!Timed_out} — the
      only failures that can legitimately differ between attempts
      (injected transients vanish after attempt 0 by construction;
      deadline misses depend on wall-clock load).  Retries are bounded
      by [max_retries] with exponential backoff.
    - {b quarantined immediately}: everything else.  Tasks are
      deterministic functions of their inputs, so a real exception is
      permanent by construction; re-running it
      would only burn the retry budget.  The task's slot in the result
      list becomes [Quarantined], every other task still completes.

    {2 Why determinism survives retries}

    A task is a thunk of its own inputs, so attempt [n] computes
    exactly what attempt [0] would have; backoff delays are a pure
    function of [(policy, attempt)]; and results are collected in input
    order by {!Domain_pool.map_list}.  Hence a run with injected
    transient faults and retries produces output byte-identical to a
    fault-free run at any pool width.

    {2 Checkpoint replay}

    With [?checkpoint] (and its [?codec]), completed tasks are recorded
    as encoded payloads and flushed atomically; on a later run, tasks
    whose id is already stored are {e replayed} — decoded and returned
    without executing — which is what makes [--resume] bit-for-bit. *)

exception Timed_out of { task : string; elapsed_s : float }
(** Raised when an attempt returns after its deadline: the result is
    discarded.  Retryable. *)

type policy = {
  max_retries : int;  (** extra attempts after the first (>= 0) *)
  timeout_s : float option;
      (** per-attempt deadline, checked when the attempt returns *)
  backoff_base_s : float;
      (** delay before the first retry; it doubles per retry, capped
          at 1 s *)
}

val default_policy : policy
(** 3 retries, no deadline, 50 ms base. *)

val validate_policy : policy -> unit
(** The check {!run} applies to its [?policy]: retries [>= 0], a
    finite positive deadline and a finite non-negative backoff base.
    Exposed so front ends can reject bad flags before any task runs.
    @raise Invalid_argument naming the offending field. *)

val backoff_delay : policy -> attempt:int -> float
(** Pure backoff schedule: the delay slept after 0-based [attempt]
    fails (i.e. before attempt [attempt + 1]), [backoff_base_s * 2^attempt]
    capped at 1 s.  Exposed so tests can assert the exact schedule. *)

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

type 'a task = { id : string; run : unit -> 'a }

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
    don't print to stdout from them (stderr is fine).  A task that
    raises is quarantined or retried, never re-raised.
    @raise Invalid_argument on duplicate task ids, a [?checkpoint]
    without [?codec], or a malformed policy.
    @raise Sys_error if writing [?checkpoint] fails: the run is
    aborted, since a result that cannot be recorded cannot be
    resumed. *)
