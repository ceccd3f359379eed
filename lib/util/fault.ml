(** Deterministic fault injection at task boundaries (see the .mli for
    the determinism contract).

    Every decision is a pure function of [(seed, task id, attempt)]
    through a dedicated {!Prng} stream, so a chaos run is exactly
    reproducible and — because transient faults fire only on a task's
    first attempt — converges under retries to the fault-free output. *)

exception Injected_transient of { task : string; attempt : int }
exception Injected_crash of { task : string }

let () =
  Printexc.register_printer (function
    | Injected_transient { task; attempt } ->
        Some
          (Printf.sprintf "Fault.Injected_transient(task=%s, attempt=%d)" task
             attempt)
    | Injected_crash { task } ->
        Some (Printf.sprintf "Fault.Injected_crash(task=%s)" task)
    | _ -> None)

type t = {
  seed : int;
  rate : float;  (** transient-fault probability per task, in [0, 1] *)
  kill : string list;  (** task ids that crash permanently *)
  max_delay_s : float;  (** upper bound of an injected delay *)
}

let none = { seed = 0; rate = 0.0; kill = []; max_delay_s = 0.0 }

let create ?(max_delay_s = 0.002) ~seed ~rate () =
  if not (Float.is_finite rate) || rate < 0.0 || rate > 1.0 then
    invalid_arg (Printf.sprintf "Fault.create: rate = %g outside [0, 1]" rate);
  if not (Float.is_finite max_delay_s) || max_delay_s < 0.0 then
    invalid_arg
      (Printf.sprintf "Fault.create: max_delay_s = %g must be >= 0" max_delay_s);
  { seed; rate; kill = []; max_delay_s }

let seed t = t.seed
let rate t = t.rate
let kill t ids = { t with kill = ids @ t.kill }

(* "seed:rate", e.g. "7:0.2".  The kill list is a separate knob
   (--kill / [kill]) because it names tasks, not a probability. *)
let of_spec spec =
  match String.index_opt spec ':' with
  | None -> Error (Printf.sprintf "bad chaos spec %S: expected <seed>:<rate>" spec)
  | Some i -> (
      let seed_s = String.sub spec 0 i in
      let rate_s = String.sub spec (i + 1) (String.length spec - i - 1) in
      match (int_of_string_opt seed_s, float_of_string_opt rate_s) with
      | Some seed, Some rate
        when Float.is_finite rate && rate >= 0.0 && rate <= 1.0 ->
          Ok (create ~seed ~rate ())
      | Some _, (Some _ | None) ->
          Error
            (Printf.sprintf "bad chaos spec %S: rate must be a float in [0, 1]"
               spec)
      | None, _ ->
          Error
            (Printf.sprintf "bad chaos spec %S: seed must be an integer" spec))

let to_spec t = Printf.sprintf "%d:%g" t.seed t.rate

let env_var = "CCACHE_CHAOS"

let from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok None
  | Some spec -> (
      match of_spec spec with
      | Ok t -> Ok (Some t)
      | Error e -> Error (Printf.sprintf "%s: %s" env_var e))

(* Draw order is part of the format: delay decision, delay magnitude,
   transient decision.  Changing it changes which faults a given seed
   produces, which silently invalidates recorded chaos runs. *)
let at_boundary t ~task ~attempt =
  if List.mem task t.kill then raise (Injected_crash { task });
  if t.rate > 0.0 then begin
    let g =
      Prng.derive ~seed:t.seed ~key:(task ^ "#" ^ string_of_int attempt)
    in
    (* Delays perturb scheduling (any attempt) without touching results. *)
    if Prng.bernoulli g ~p:(t.rate /. 2.0) && t.max_delay_s > 0.0 then
      Unix.sleepf (Prng.float_range g t.max_delay_s);
    (* Transient faults fire only on the first attempt, so any retry
       budget >= 1 provably recovers every injected transient — the
       invariant behind the chaos-equals-fault-free CI diff. *)
    if attempt = 0 && Prng.bernoulli g ~p:t.rate then
      raise (Injected_transient { task; attempt })
  end
