(** Supervised-runner wiring shared by the binaries: the retry policy,
    fault injection, checkpoint/resume and event reporting behind the
    [--timeout], [--retries], [--backoff], [--jitter], [--chaos],
    [--kill], [--checkpoint] and [--resume] flags.  A malformed value
    is a usage error — a message on stderr and exit 2 — never an
    uncaught exception. *)

module U = Ccache_util

let usage_error msg =
  Fmt.epr "%s@." msg;
  exit 2

(** The retry/deadline/backoff policy the flags describe, validated
    with {!Ccache_util.Supervisor.validate_policy}. *)
let policy ?jitter ~timeout ~retries ~backoff () =
  if retries < 0 then usage_error "--retries must be >= 0";
  let default = U.Supervisor.default_policy in
  let p =
    {
      default with
      max_retries = retries;
      timeout_s = timeout;
      backoff_base_s = backoff;
      jitter = Option.value jitter ~default:default.jitter;
    }
  in
  (try U.Supervisor.validate_policy p with Invalid_argument msg -> usage_error msg);
  p

(** The map width [--jobs N] asks for: [None] (run on the calling
    domain) at 1, one per core ({!Ccache_util.Domain_pool.default_size})
    at 0. *)
let pool ~jobs =
  if jobs < 0 then usage_error "--jobs must be >= 0";
  if jobs = 1 then None
  else
    Some (U.Domain_pool.create ?size:(if jobs = 0 then None else Some jobs) ())

(** [--chaos SEED:RATE] (else [CCACHE_CHAOS]), plus one permanent
    crash per [--kill ID]. *)
let fault ~chaos ~kill =
  let base =
    match chaos with
    | Some spec -> (
        match U.Fault.of_spec spec with Ok f -> f | Error e -> usage_error e)
    | None -> (
        match U.Fault.from_env () with
        | Ok f -> Option.value f ~default:U.Fault.none
        | Error e -> usage_error e)
  in
  if kill = [] then base else U.Fault.kill base kill

(** [--checkpoint FILE] records completed tasks; with [--resume] the
    tasks already in FILE are replayed (a missing FILE starts fresh),
    provided it was written under the same [fingerprint]. *)
let checkpoint ~path ~resume ~fingerprint =
  match (path, resume) with
  | None, false -> None
  | None, true -> usage_error "--resume requires --checkpoint FILE"
  | Some p, true -> (
      match U.Checkpoint.load_or_create ~path:p ~fingerprint () with
      | Ok ck -> Some ck
      | Error e -> usage_error ("cannot resume: " ^ e))
  | Some p, false -> Some (U.Checkpoint.create ~path:p ~fingerprint ())

(** One stderr line per supervisor event. *)
let on_event = function
  | U.Supervisor.Retrying { task; attempt; delay_s; error } ->
      Fmt.epr "[supervisor] %s: attempt %d after %.3fs backoff (%s)@." task
        attempt delay_s error
  | U.Supervisor.Gave_up { task; attempts; error } ->
      Fmt.epr "[supervisor] %s: quarantined after %d attempt(s): %s@." task
        attempts error
  | U.Supervisor.Replayed { task } ->
      Fmt.epr "[supervisor] %s: replayed from checkpoint@." task
