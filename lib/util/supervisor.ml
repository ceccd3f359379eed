(** Supervision layer over {!Domain_pool}: deadlines, bounded retry
    with deterministic backoff, crash quarantine, checkpoint replay.
    The .mli documents the failure model; DESIGN.md Section 8 explains
    why determinism survives retries. *)

exception Timed_out of { task : string; elapsed_s : float }

(* Deadlines are genuine wall-clock state, but the *read* still goes
   through the quarantined capability so the no-wall-clock lint rule
   holds: Ccache_obs.Clock is the only module in lib/ that touches
   Unix.gettimeofday.  Deadline results never feed simulation state —
   a miss raises and the attempt is recomputed. *)
let wall_now () = Ccache_obs.Clock.(now wall)

let () =
  Printexc.register_printer (function
    | Timed_out { task; elapsed_s } ->
        Some
          (Printf.sprintf "Supervisor.Timed_out(task=%s, elapsed=%.3fs)" task
             elapsed_s)
    | _ -> None)

type policy = {
  max_retries : int;
  timeout_s : float option;
  backoff_base_s : float;
}

let default_policy = { max_retries = 3; timeout_s = None; backoff_base_s = 0.05 }

let validate_policy p =
  if p.max_retries < 0 then
    invalid_arg "Supervisor: max_retries must be >= 0";
  (match p.timeout_s with
  | Some s when (not (Float.is_finite s)) || s <= 0.0 ->
      invalid_arg
        (Printf.sprintf "Supervisor: timeout_s = %g must be finite and > 0" s)
  | _ -> ());
  if not (Float.is_finite p.backoff_base_s) || p.backoff_base_s < 0.0 then
    invalid_arg "Supervisor: backoff_base_s must be finite and >= 0"

(* Pure so tests can assert the exact schedule.  [attempt] is the
   0-based attempt that just failed; the delay precedes attempt+1. *)
let backoff_delay policy ~attempt =
  if policy.backoff_base_s <= 0.0 then 0.0
  else Float.min (policy.backoff_base_s *. (2.0 ** float_of_int attempt)) 1.0

(* ------------------------------------------------------------------ *)
(* Outcomes and events                                                 *)
(* ------------------------------------------------------------------ *)

type failure = { task : string; attempts : int; error : string }

type 'a outcome = Completed of 'a | Quarantined of failure

type event =
  | Retrying of { task : string; attempt : int; delay_s : float; error : string }
  | Gave_up of failure
  | Replayed of { task : string }

type 'a task = { id : string; run : unit -> 'a }
type 'a codec = { encode : 'a -> string; decode : string -> 'a option }

let string_codec = { encode = Fun.id; decode = Option.some }

let completed outcomes =
  List.filter_map (function Completed v -> Some v | Quarantined _ -> None) outcomes

let failures outcomes =
  List.filter_map (function Quarantined f -> Some f | Completed _ -> None) outcomes

let error_message e =
  match e with
  | Failure m -> m
  | Invalid_argument m -> "Invalid_argument: " ^ m
  | e -> Printexc.to_string e

(* Only an injected transient (gone by construction on attempt >= 1)
   is worth a second attempt.  Anything else a deterministic task
   raised once it will raise forever, so we quarantine immediately
   rather than burn the retry budget re-proving it.  That includes a
   deadline miss: the deadline is checked only when an attempt returns,
   so every retry would run the whole task again, and on a host that is
   not overloaded it would overrun again. *)
let retryable = function Fault.Injected_transient _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)
(* ------------------------------------------------------------------ *)

let check_distinct_ids tasks =
  let seen = Hashtbl.create (List.length tasks) in
  List.iter
    (fun t ->
      if Hashtbl.mem seen t.id then
        invalid_arg (Printf.sprintf "Supervisor.run: duplicate task id %S" t.id);
      Hashtbl.replace seen t.id ())
    tasks

let run ?pool ?(policy = default_policy) ?(fault = Fault.none) ?checkpoint
    ?codec ?on_event tasks =
  validate_policy policy;
  check_distinct_ids tasks;
  (match (checkpoint, codec) with
  | Some _, None ->
      invalid_arg "Supervisor.run: ?checkpoint requires a ?codec to replay"
  | _ -> ());
  (* Serialise event delivery: callbacks fire on worker domains. *)
  let emit_lock = Mutex.create () in
  let emit ev =
    match on_event with
    | None -> ()
    | Some f -> Mutex.protect emit_lock (fun () -> f ev)
  in
  let replay task =
    match (checkpoint, codec) with
    | Some ck, Some c -> (
        match Checkpoint.find ck task.id with
        | None -> None
        | Some payload -> c.decode payload (* undecodable entry: recompute *))
    | _ -> None
  in
  let record task v =
    match (checkpoint, codec) with
    | Some ck, Some c -> Checkpoint.record ck ~id:task.id (c.encode v)
    | _ -> ()
  in
  let run_task task =
    match replay task with
    | Some v ->
        emit (Replayed { task = task.id });
        Ccache_obs.Metrics.incr "supervisor/replayed";
        Ccache_obs.Span.instant ~cat:"supervisor"
          ~args:[ ("task", Ccache_obs.Sink.Str task.id) ]
          "supervisor/replay";
        Completed v
    | None ->
        let rec go att =
          let started = wall_now () in
          match
            (* One span per attempt: the trace shows every retry as its
               own region (recorded even when the attempt raises), with
               quarantine/retry annotations as instant events below. *)
            Ccache_obs.Span.with_ ~cat:"supervisor"
              ~args:[ ("attempt", Ccache_obs.Sink.Int att) ]
              ("task:" ^ task.id)
              (fun () ->
                Fault.at_boundary fault ~task:task.id ~attempt:att;
                let v = task.run () in
                (* The deadline is checked when the attempt returns: an
                   overrun result is discarded, never returned. *)
                (match policy.timeout_s with
                | Some s ->
                    let now = wall_now () in
                    if now > started +. s then
                      raise
                        (Timed_out { task = task.id; elapsed_s = now -. started })
                | None -> ());
                v)
          with
          | v ->
              record task v;
              Ccache_obs.Metrics.incr "supervisor/completed";
              Completed v
          | exception e when retryable e && att < policy.max_retries ->
              let delay_s = backoff_delay policy ~attempt:att in
              emit
                (Retrying
                   {
                     task = task.id;
                     attempt = att + 1;
                     delay_s;
                     error = error_message e;
                   });
              Ccache_obs.Metrics.incr "supervisor/retries";
              Ccache_obs.Span.instant ~cat:"supervisor"
                ~args:
                  [
                    ("task", Ccache_obs.Sink.Str task.id);
                    ("attempt", Ccache_obs.Sink.Int (att + 1));
                    ("error", Ccache_obs.Sink.Str (error_message e));
                  ]
                "supervisor/retry";
              if delay_s > 0.0 then Unix.sleepf delay_s;
              go (att + 1)
          | exception e ->
              let f =
                { task = task.id; attempts = att + 1; error = error_message e }
              in
              emit (Gave_up f);
              Ccache_obs.Metrics.incr "supervisor/quarantined";
              Ccache_obs.Span.instant ~cat:"supervisor"
                ~args:
                  [
                    ("task", Ccache_obs.Sink.Str task.id);
                    ("attempts", Ccache_obs.Sink.Int f.attempts);
                    ("error", Ccache_obs.Sink.Str f.error);
                  ]
                "supervisor/quarantine";
              Quarantined f
        in
        go 0
  in
  (* A task's own failure is an outcome, never an exception, so one
     quarantined task cannot abort the map: every other task still runs
     and keeps its slot.  run_task raises only when recording a result
     to the checkpoint fails (an I/O error), which aborts the run. *)
  let outcomes = Domain_pool.map_list ?pool ~f:run_task tasks in
  Option.iter Checkpoint.flush checkpoint;
  outcomes
