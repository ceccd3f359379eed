(** Deterministic fault injection at task boundaries.

    The supervised runner ({!Supervisor}) calls {!at_boundary} before
    every task attempt; this module decides — as a pure function of
    [(seed, task id, attempt)] through a dedicated {!Prng} stream —
    whether to inject a fault there.  Three fault classes:

    - {b transient exceptions} ({!Injected_transient}): raised with
      probability [rate], but only on a task's {e first} attempt, so a
      retry budget of one or more provably recovers every injected
      transient and a chaos run converges byte-for-byte to the
      fault-free output;
    - {b delays}: short sleeps (up to 2 ms, probability [rate/2], any
      attempt) that perturb cross-domain scheduling
      without touching results — they exercise the determinism contract
      under adversarial interleavings;
    - {b permanent crashes} ({!Injected_crash}): task ids listed in
      [kill] raise on {e every} attempt, exercising quarantine,
      partial-checkpoint and resume paths.

    Nothing here consults wall-clock time or [Stdlib.Random]; a chaos
    spec reproduces the same injection pattern on every run. *)

exception Injected_transient of { task : string; attempt : int }
(** A retryable injected failure (first attempt only). *)

exception Injected_crash of { task : string }
(** A permanent injected failure (every attempt; task id in [kill]). *)

type t

val none : t
(** Injects nothing; {!at_boundary} is a no-op. *)

val create : seed:int -> rate:float -> t
(** No task is killed until {!kill} adds some.
    @raise Invalid_argument if [rate] is outside [\[0, 1\]] (non-finite
    values included). *)

val seed : t -> int
val rate : t -> float

val kill : t -> string list -> t
(** [kill t ids] adds permanently-crashing task ids. *)

val of_spec : string -> (t, string) result
(** Parse a ["<seed>:<rate>"] spec (the [--chaos] argument). *)

val to_spec : t -> string

val from_env : unit -> (t option, string) result
(** [Ok None] when the variable is unset or empty; [Error _] names the
    variable on a malformed spec. *)

val at_boundary : t -> task:string -> attempt:int -> unit
(** Called by the supervisor before each attempt.  May sleep briefly,
    raise {!Injected_transient} (first attempt only) or
    {!Injected_crash} (killed ids); otherwise returns unit.  The
    decision depends only on [(seed, task, attempt)]. *)
