(** Descriptive statistics of a trace.

    Used by experiment reports to characterise generated workloads
    (footprint, per-user request share) and by tests to sanity-check
    the generators (e.g. Zipf skew actually skews). *)

type per_user = {
  user : int;
  requests : int;
  distinct_pages : int;
}

type t = {
  length : int;
  n_users : int;
  distinct_pages : int;
  per_user : per_user array;
  cold_misses : int;  (** first-touch requests = compulsory misses *)
}

(* The trace's dictionary already holds its distinct pages, one per
   compulsory miss; a tenant's distinct pages are its entries there. *)
let compute trace =
  let n_users = Trace.n_users trace in
  let pages = Trace.pages trace in
  let requests = Array.make n_users 0 and distinct = Array.make n_users 0 in
  Array.iter (fun p -> distinct.(Page.user p) <- distinct.(Page.user p) + 1) pages;
  let ids : Trace.ids = Trace.dense trace in
  for pos = 0 to Bigarray.Array1.dim ids - 1 do
    let d = Int32.to_int (Bigarray.Array1.unsafe_get ids pos) land 0xFFFF_FFFF in
    let u = Page.user pages.(d) in
    requests.(u) <- requests.(u) + 1
  done;
  {
    length = Trace.length trace;
    n_users;
    distinct_pages = Trace.n_pages trace;
    per_user =
      Array.init n_users (fun u ->
          { user = u; requests = requests.(u); distinct_pages = distinct.(u) });
    cold_misses = Trace.n_pages trace;
  }

(** Fraction of requests that would hit in an unbounded cache
    (i.e. 1 - compulsory miss rate). *)
let max_hit_ratio t =
  if t.length = 0 then 0.0
  else float_of_int (t.length - t.cold_misses) /. float_of_int t.length

let to_table t =
  let open Ccache_util.Ascii_table in
  let tbl =
    create ~title:"trace statistics"
      [ "user"; "requests"; "distinct pages"; "share" ]
  in
  Array.iter
    (fun u ->
      add_row tbl
        [
          cell_int u.user;
          cell_int u.requests;
          cell_int u.distinct_pages;
          cell_pct (float_of_int u.requests /. float_of_int (Stdlib.max 1 t.length));
        ])
    t.per_user;
  tbl
