(** Request sequences and their static index.

    A trace is the online input sigma = (p_1, ..., p_T).  Besides the raw
    sequence, the convex program and the offline algorithms need the
    bookkeeping the paper defines in Section 2:

    - [r(p,t)]     — number of requests of page p up to time t,
    - [j(p,t)]     — interval index of p at time t,
    - [B(t)]       — set of distinct pages requested up to time t,
    - next/previous use positions (for Belady-style policies).

    [Index.build] precomputes all of these in O(T) once per trace.
    Positions are 0-based throughout the code base; the paper's t runs
    from 1, so position [t-1] here corresponds to the paper's time t.

    Dense interning: every trace carries (computed on first demand) a
    remap of its distinct pages onto the dense range [0, P) in
    first-touch order — [dense.(pos)] is the rank of the page requested
    at [pos], and a {!Ccache_util.Interner} maps packed pages to ranks
    and back.  The remap is what lets
    {!Index.build} run on flat int arrays instead of [Page.Tbl]
    hashtables, and it is the on-disk vocabulary of the binary trace
    format ({!Trace_binary}).  The structure is immutable once built
    and published through an [Atomic.t], so traces stay safely sharable
    across domains. *)

module Interner = Ccache_util.Interner

type interning = {
  dense : int array;  (** [dense.(pos)] = first-touch rank of the page at [pos] *)
  ranks : Interner.t;  (** packed page <-> dense id; read-only once published *)
}

type t = {
  requests : Page.t array;
  n_users : int;
  interning : interning option Atomic.t;
      (** built on first demand; both racing domains compute the same
          value, and the atomic publish keeps the record safely visible *)
}

let length t = Array.length t.requests
let n_users t = t.n_users

let request t pos = t.requests.(pos)
  [@@effects.no_alloc] [@@effects.deterministic]

let requests t = t.requests

(* One O(T) pass: packed pages are non-negative ints, so they key the
   interner directly. *)
let compute_interning requests =
  let ranks = Interner.create ~capacity:256 in
  let dense = Array.map (fun p -> Interner.intern ranks (Page.pack p)) requests in
  { dense; ranks }

let interning t =
  match Atomic.get t.interning with
  | Some i -> i
  | None ->
      let i = compute_interning t.requests in
      Atomic.set t.interning (Some i);
      i

let n_pages t = Interner.length (interning t).ranks
let dense t = (interning t).dense
let page_of_dense t d = Page.unpack (Interner.key (interning t).ranks d)

let dense_of_page t page =
  let d = Interner.find (interning t).ranks (Page.pack page) in
  if d >= 0 then Some d else None

let check_users ~n_users pages =
  Array.iter
    (fun p ->
      if Page.user p < 0 || Page.user p >= n_users then
        invalid_arg
          (Printf.sprintf "Trace.of_pages: page %s outside user range [0,%d)"
             (Page.to_string p) n_users))
    pages

let of_pages ~n_users pages =
  if n_users <= 0 then invalid_arg "Trace.of_pages: need at least one user";
  check_users ~n_users pages;
  { requests = Array.copy pages; n_users; interning = Atomic.make None }

let of_list ~n_users pages = of_pages ~n_users (Array.of_list pages)

(** Rebuild a trace from its interned form (the binary format's
    vocabulary): [pages] in first-touch order, [dense] the per-position
    ranks.  Validates that the remap is well-formed — ranks in [0, P),
    first occurrences in increasing rank order, distinct pages — so a
    crafted file cannot smuggle in a trace whose [distinct_pages] order
    disagrees with its request sequence. *)
let of_dense ~n_users ~pages ~dense =
  if n_users <= 0 then invalid_arg "Trace.of_dense: need at least one user";
  check_users ~n_users pages;
  let p = Array.length pages in
  let n = Array.length dense in
  let requests = Array.make n (Page.make ~user:0 ~id:0) in
  let seen = ref 0 in
  for pos = 0 to n - 1 do
    let d = dense.(pos) in
    if d < 0 || d >= p then
      invalid_arg
        (Printf.sprintf "Trace.of_dense: rank %d outside [0,%d) at position %d"
           d p pos);
    if d > !seen then
      invalid_arg
        (Printf.sprintf
           "Trace.of_dense: rank %d at position %d before rank %d appeared"
           d pos !seen)
    else if d = !seen then incr seen;
    requests.(pos) <- pages.(d)
  done;
  if !seen <> p then
    invalid_arg
      (Printf.sprintf "Trace.of_dense: %d of %d pages never requested"
         (p - !seen) p);
  (* a page listed twice gets its first listing's rank back *)
  let ranks = Interner.create ~capacity:p in
  Array.iteri
    (fun d page ->
      if Interner.intern ranks (Page.pack page) <> d then
        invalid_arg
          (Printf.sprintf "Trace.of_dense: duplicate page %s"
             (Page.to_string page)))
    pages;
  {
    requests;
    n_users;
    interning = Atomic.make (Some { dense = Array.copy dense; ranks });
  }

(** Concatenate traces over the same user universe. *)
let append a b =
  if a.n_users <> b.n_users then invalid_arg "Trace.append: user-count mismatch";
  {
    requests = Array.append a.requests b.requests;
    n_users = a.n_users;
    interning = Atomic.make None;
  }

(** Distinct pages, in first-touch order (the interning vocabulary). *)
let distinct_pages t = List.init (n_pages t) (page_of_dense t)

(** Append the paper's terminal flush: a dummy user owning [k] fresh
    pages, all requested once at the end, forcing every real page out of
    a size-k cache.  The dummy user gets id [n_users] (so the result has
    [n_users + 1] users); its cost function should be zero. *)
let with_flush ~k t =
  if k <= 0 then invalid_arg "Trace.with_flush: k must be positive";
  let dummy = Array.init k (fun i -> Page.make ~user:t.n_users ~id:i) in
  {
    requests = Array.append t.requests dummy;
    n_users = t.n_users + 1;
    interning = Atomic.make None;
  }

module Index = struct
  type trace = t

  (* All per-position vectors are flat int arrays; the per-page vectors
     (request totals, first positions) are flat arrays over the dense
     page space — no hashtable is touched after the trace's one-off
     interning pass, and page-keyed queries translate through the
     interner. *)
  type t = {
    trace : trace;
    interval : int array;
        (** [interval.(pos)] = j(p,pos): 1-based index of this request
            among all requests of the same page. *)
    next_use : int array;
        (** position of the next request of the same page, or
            [Int.max_int] if none. *)
    prev_use : int array;
        (** position of the previous request of the same page, or [-1]. *)
    distinct_upto : int array;
        (** [distinct_upto.(pos)] = |B(t)| after including this request. *)
    counts : int array;  (** r(p,T) per dense page id *)
    first_pos : int array;  (** first position of each dense page id *)
  }

  let build trace =
    let dense = (interning trace).dense in
    let p = n_pages trace in
    let n = Array.length trace.requests in
    let interval = Array.make n 0 in
    let next_use = Array.make n Int.max_int in
    let prev_use = Array.make n (-1) in
    let distinct_upto = Array.make n 0 in
    let counts = Array.make p 0 in
    let last_pos = Array.make p (-1) in
    let first_pos = Array.make p (-1) in
    let distinct = ref 0 in
    for pos = 0 to n - 1 do
      let d = Array.unsafe_get dense pos in
      let c = Array.unsafe_get counts d in
      Array.unsafe_set counts d (c + 1);
      Array.unsafe_set interval pos (c + 1);
      let prev = Array.unsafe_get last_pos d in
      if prev >= 0 then begin
        Array.unsafe_set next_use prev pos;
        Array.unsafe_set prev_use pos prev
      end
      else begin
        incr distinct;
        Array.unsafe_set first_pos d pos
      end;
      Array.unsafe_set last_pos d pos;
      Array.unsafe_set distinct_upto pos !distinct
    done;
    { trace; interval; next_use; prev_use; distinct_upto; counts; first_pos }

  (** j(p, pos): which interval of page p the position falls in. *)
  let interval_index t pos = t.interval.(pos)
    [@@effects.no_alloc] [@@effects.deterministic]

  let next_use t pos = t.next_use.(pos)
    [@@effects.no_alloc] [@@effects.deterministic]

  let prev_use t pos = t.prev_use.(pos)
    [@@effects.no_alloc] [@@effects.deterministic]

  let distinct_upto t pos = t.distinct_upto.(pos)
    [@@effects.no_alloc] [@@effects.deterministic]

  (* page-keyed queries: one interner probe to enter the dense space *)
  let dense_id t page =
    Interner.find
      (match Atomic.get t.trace.interning with
      | Some i -> i.ranks
      | None -> assert false (* build forced the interning *))
      (Page.pack page)
    [@@effects.no_alloc] [@@effects.deterministic]

  (** r(p, T): total number of requests of [page] in the whole trace. *)
  let total_requests t page =
    let d = dense_id t page in
    if d >= 0 then t.counts.(d) else 0
    [@@effects.no_alloc] [@@effects.deterministic]

  let first_use t page =
    let d = dense_id t page in
    if d >= 0 then Some t.first_pos.(d) else None

  (** Is [pos] the last request of its page? *)
  let is_last_request t pos = t.next_use.(pos) = Int.max_int
    [@@effects.no_alloc] [@@effects.deterministic]
end
