(** The offline comparator from the paper's lower-bound proof
    (Section 4), specialised to the Theorem 1.4 instance shape: n
    users, one page each, cache k = n - 1.

    Splits the sequence into ceil((n-1)/2)-length batches; at each
    batch head it evicts one cached page that is not requested in the
    batch and has the fewest evictions so far.  At most one eviction
    per batch, spread evenly — the schedule behind the paper's
    [n * (4T/n^2)^beta] offline cost. *)

type result = {
  misses_per_user : int array;
  evictions_per_user : int array;
  batch_length : int;
  batches : int;
}

val run : k:int -> Ccache_trace.Trace.t -> result
(** @raise Invalid_argument if some user owns more than one page or
    the instance shape leaves no eviction candidate. *)
