(** Descriptive statistics of a trace: per-tenant footprints, request
    shares and compulsory misses, read off the trace's dictionary and
    dense ids.  Used by reports and by tests that sanity-check the
    generators. *)

type per_user = { user : int; requests : int; distinct_pages : int }

type t = {
  length : int;
  n_users : int;
  distinct_pages : int;
  per_user : per_user array;
  cold_misses : int;  (** first-touch requests = compulsory misses *)
}

val compute : Trace.t -> t

val max_hit_ratio : t -> float
(** 1 - compulsory miss rate: the best any cache could do. *)

val to_table : t -> Ccache_util.Ascii_table.t
