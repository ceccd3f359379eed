(** Windowed accounting: price misses per fixed-length request window
    ([sum over windows of sum_i f_i(misses_i(window))]), the form the
    paper's motivation states SLAs in.  Computed from an engine event
    log, so one run prices both the cumulative and the windowed
    objective. *)

type t = {
  window : int;
  n_windows : int;
  misses : int array array;  (** misses.(window).(user) *)
}

val cost : costs:Ccache_cost.Cost_function.t array -> t -> float

val breaches : t -> user:int -> threshold:int -> int
(** Windows in which the user exceeded [threshold] misses. *)

val run_windowed :
  ?flush:bool ->
  window:int ->
  k:int ->
  costs:Ccache_cost.Cost_function.t array ->
  Policy.t ->
  Ccache_trace.Trace.t ->
  Engine.result * t
