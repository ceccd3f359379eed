(** Windowed accounting.

    The paper's motivation prices misses per time window ("a user can
    tolerate up to around M misses in a time window of T"), while its
    model prices the whole sequence.  This module provides the
    windowed view: split the request positions into fixed-length
    windows and charge [sum over windows of sum_i f_i(misses_i(w))].

    Windowed cost is computed from an engine event log, so any policy
    can be priced both ways from a single {!Engine.run_logged}. *)

type t = {
  window : int;  (** window length in requests *)
  n_windows : int;
  misses : int array array;  (** misses.(w).(user) *)
}

let of_events ~window ~n_users ~trace_length events =
  if window <= 0 then invalid_arg "Windows.of_events: window must be positive";
  let n_windows = (trace_length + window - 1) / window in
  let misses = Array.init (Stdlib.max 1 n_windows) (fun _ -> Array.make n_users 0) in
  List.iter
    (fun ev ->
      match ev with
      | Engine.Hit _ -> ()
      | Engine.Miss_insert { pos; page } | Engine.Miss_evict { pos; page; _ } ->
          (* flush events sit past the trace end; they are evictions of
             the dummy user and carry no miss for real users *)
          let u = Ccache_trace.Page.user page in
          if pos < trace_length && u < n_users then
            misses.(pos / window).(u) <- misses.(pos / window).(u) + 1)
    events;
  { window; n_windows = Stdlib.max 1 n_windows; misses }

(** Total windowed objective: each window is priced independently. *)
let cost ~costs t =
  let acc = ref 0.0 in
  Array.iter
    (fun per_user ->
      Array.iteri
        (fun u m ->
          acc :=
            !acc +. Ccache_cost.Cost_function.eval costs.(u) (float_of_int m))
        per_user)
    t.misses;
  !acc

(** Windows in which [user] exceeded [threshold] misses — SLA breach
    count under a per-window tolerance. *)
let breaches t ~user ~threshold =
  Array.fold_left
    (fun acc per_user -> if per_user.(user) > threshold then acc + 1 else acc)
    0 t.misses

(** Convenience: run a policy and price it per-window. *)
let run_windowed ?flush ~window ~k ~costs policy trace =
  let result, log = Engine.run_logged ?flush ~k ~costs policy trace in
  let t =
    of_events ~window
      ~n_users:result.Engine.n_users
      ~trace_length:result.Engine.trace_length log
  in
  (result, t)
