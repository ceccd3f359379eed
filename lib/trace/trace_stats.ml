(** Descriptive statistics of a trace.

    Used by experiment reports to characterise generated workloads
    (footprint, per-user request share, reuse distances) and by tests to
    sanity-check the generators (e.g. Zipf skew actually skews). *)

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

let compute trace =
  let n_users = Trace.n_users trace in
  let req_counts = Array.make n_users 0 in
  let page_sets = Array.init n_users (fun _ -> Page.Tbl.create 64) in
  let seen = Page.Tbl.create 256 in
  let cold = ref 0 in
  Array.iter
    (fun p ->
      let u = Page.user p in
      req_counts.(u) <- req_counts.(u) + 1;
      Page.Tbl.replace page_sets.(u) p ();
      if not (Page.Tbl.mem seen p) then begin
        Page.Tbl.add seen p ();
        incr cold
      end)
    (Trace.requests trace);
  {
    length = Trace.length trace;
    n_users;
    distinct_pages = Page.Tbl.length seen;
    per_user =
      Array.init n_users (fun u ->
          { user = u; requests = req_counts.(u); distinct_pages = Page.Tbl.length page_sets.(u) });
    cold_misses = !cold;
  }

(** Reuse distance of each non-first request: number of *distinct* pages
    referenced strictly between consecutive uses of the same page.
    Infinite-cache stack distances; the classical locality profile. *)
let reuse_distances trace =
  let idx = Trace.Index.build trace in
  let n = Trace.length trace in
  (* O(T * D) sweep with a distinct-page counter per gap would be
     quadratic; instead count distinct pages via timestamps: for each
     request at [pos] with previous use [prev], the reuse distance is
     the number of pages whose last use in (prev, pos) lies in that
     window.  We approximate with the standard "set of pages touched in
     the window" computed by a per-window hash sweep, acceptable for the
     trace sizes used in experiments. *)
  let reqs = Trace.requests trace in
  let out = ref [] in
  for pos = 0 to n - 1 do
    let prev = Trace.Index.prev_use idx pos in
    if prev >= 0 then begin
      let seen = Page.Tbl.create 16 in
      for q = prev + 1 to pos - 1 do
        Page.Tbl.replace seen reqs.(q) ()
      done;
      out := float_of_int (Page.Tbl.length seen) :: !out
    end
  done;
  Array.of_list (List.rev !out)

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
