(** Request sequences and their static index.

    A trace is the online input sigma = (p_1, ..., p_T).  Besides the raw
    sequence, the convex program and the offline algorithms need the
    bookkeeping the paper defines in Section 2:

    - [j(p,t)]     — interval index of p at time t,
    - [B(t)]       — set of distinct pages requested up to time t,
    - next-use positions (for Belady-style policies).

    [Index.build] precomputes these in O(T) once per trace.
    Positions are 0-based throughout the code base; the paper's t runs
    from 1, so position [t-1] here corresponds to the paper's time t.

    Representation: a trace {e is} its dense interning, built eagerly
    by every constructor.  Its distinct pages are numbered [0, P) in
    first-touch order; [dict.(d)] is the page with dense id [d],
    [dense.{pos}] the dense id requested at [pos] (an unsigned 32-bit
    element of an [int32] Bigarray: 4 bytes per request, and for a
    trace read from a [.ctrace] file the file's own mapping), and a
    {!Ccache_util.Interner} maps packed pages to dense ids.  The
    request at [pos] is [dict.(dense.{pos})]: no [Page.t array] of
    length T is kept.  The dense ids are what {!Index.build}'s flat
    arrays, the engine's cache set and the binary trace format
    ({!Trace_binary}) are keyed by.  Nothing is written after
    construction, so traces are safely sharable across domains. *)

module Interner = Ccache_util.Interner
module A1 = Bigarray.Array1

type ids = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

type t = {
  n_users : int;
  dict : Page.t array;  (** dense id -> page, in first-touch order *)
  dense : ids;  (** [dense.{pos}] = dense id (u32) of the page at [pos] *)
  ranks : Interner.t;  (** packed page -> dense id; never interned into *)
}

(* Every read below names [ids], so each compiles to a load of the
   32-bit element; the mask undoes the sign extension of [int32]. *)
let[@inline] id_at (ids : ids) pos = Int32.to_int (A1.get ids pos) land 0xFFFF_FFFF

let[@inline] unsafe_id_at (ids : ids) pos =
  Int32.to_int (A1.unsafe_get ids pos) land 0xFFFF_FFFF

let create_ids n : ids = A1.create Bigarray.int32 Bigarray.c_layout n

let length t = A1.dim t.dense
let n_users t = t.n_users

let request t pos = t.dict.(id_at t.dense pos)
  [@@effects.no_alloc] [@@effects.deterministic]

let requests t = Array.init (A1.dim t.dense) (fun pos -> t.dict.(unsafe_id_at t.dense pos))
let n_pages t = Array.length t.dict
let dense t = t.dense
let pages t = t.dict
let interner t = t.ranks
let page_of_dense t d = t.dict.(d)

(* The one interning pass.  A page's user is checked once, on its
   dictionary entry: the first page out of range in first-touch order is
   the page of the first request out of range. *)
let of_pages ~n_users pages =
  if n_users <= 0 then invalid_arg "Trace.of_pages: need at least one user";
  let ranks = Interner.create ~capacity:256 in
  let dense = create_ids (Array.length pages) in
  for pos = 0 to Array.length pages - 1 do
    A1.unsafe_set dense pos
      (Int32.of_int (Interner.intern ranks (Page.pack pages.(pos))))
  done;
  (* a dense id is stored in 32 bits, so at most 2^32 pages can be
     told apart *)
  if Interner.length ranks > 1 lsl 32 then
    invalid_arg "Trace.of_pages: more than 2^32 distinct pages";
  let dict =
    Array.init (Interner.length ranks) (fun d -> Page.unpack (Interner.key ranks d))
  in
  Array.iter
    (fun p ->
      if Page.user p >= n_users then
        invalid_arg
          (Printf.sprintf "Trace.of_pages: page %s outside user range [0,%d)"
             (Page.to_string p) n_users))
    dict;
  { n_users; dict; dense; ranks }

let of_list ~n_users pages = of_pages ~n_users (Array.of_list pages)

(* The stream checks of [of_dense], in one pass over [ids] that
   allocates nothing unless it fails.  The binary reader runs the same
   pass over a mapped request region ([Trace_binary.validate]), so both
   name the same first defect. *)
let check_ids ~n_pages ids =
  let exception Defect of int * string in
  match
    let seen = ref 0 in
    for pos = 0 to A1.dim ids - 1 do
      let d = unsafe_id_at ids pos in
      if d >= n_pages then
        raise
          (Defect
             ( pos,
               Printf.sprintf "dense id %d at position %d outside [0,%d)" d pos
                 n_pages ));
      if d > !seen then
        raise
          (Defect
             ( pos,
               Printf.sprintf "dense id %d at position %d before id %d appeared"
                 d pos !seen ))
      else if d = !seen then incr seen
    done;
    !seen
  with
  | seen when seen = n_pages -> None
  | seen ->
      Some
        ( -1,
          Printf.sprintf "%d of %d pages never requested" (n_pages - seen)
            n_pages )
  | exception Defect (pos, msg) -> Some (pos, msg)

(** Adopt an interned form (the binary format's vocabulary): [pages] in
    first-touch order, [dense] the per-position ids, both taken over
    without a copy (for a [.ctrace] file, [dense] is its mapping).
    Validates that the remap is well-formed — ids in [0, P), first
    occurrences in increasing id order, every page requested, distinct
    pages — so a crafted file cannot smuggle in a trace whose
    [distinct_pages] order disagrees with its request sequence. *)
let of_dense ~n_users ~pages ~dense =
  if n_users <= 0 then invalid_arg "Trace.of_dense: need at least one user";
  Array.iter
    (fun page ->
      if Page.user page >= n_users then
        invalid_arg
          (Printf.sprintf "Trace.of_dense: page %s outside user range [0,%d)"
             (Page.to_string page) n_users))
    pages;
  let p = Array.length pages in
  (match check_ids ~n_pages:p dense with
  | Some (_, msg) -> invalid_arg ("Trace.of_dense: " ^ msg)
  | None -> ());
  (* a page listed twice gets its first listing's rank back *)
  let ranks = Interner.create ~capacity:p in
  Array.iteri
    (fun d page ->
      if Interner.intern ranks (Page.pack page) <> d then
        invalid_arg
          (Printf.sprintf "Trace.of_dense: duplicate page %s"
             (Page.to_string page)))
    pages;
  { n_users; dict = pages; dense; ranks }

(** The trace of a sequence of [t]'s dense ids.  A P-sized remap gives
    each selected page its first-touch rank in [ids]; the dictionary is
    read from [t]'s, and only the selected pages are interned (once
    each), so no hash probe runs per request.  The result is what
    [of_pages ~n_users:t.n_users] builds from the same pages. *)
let select t ids =
  let p = Array.length t.dict in
  let remap = Array.make p (-1) in
  let dense = create_ids (Array.length ids) in
  let seen = ref 0 in
  for pos = 0 to Array.length ids - 1 do
    let d = ids.(pos) in
    if d < 0 || d >= p then
      invalid_arg
        (Printf.sprintf "Trace.select: id %d outside [0,%d) at position %d" d
           p pos);
    let r = Array.unsafe_get remap d in
    if r >= 0 then A1.unsafe_set dense pos (Int32.of_int r)
    else begin
      Array.unsafe_set remap d !seen;
      A1.unsafe_set dense pos (Int32.of_int !seen);
      incr seen
    end
  done;
  let dict = Array.make !seen (Page.unpack 0) in
  let ranks = Interner.create ~capacity:!seen in
  for d = 0 to p - 1 do
    let r = Array.unsafe_get remap d in
    if r >= 0 then dict.(r) <- t.dict.(d)
  done;
  Array.iter (fun page -> ignore (Interner.intern ranks (Page.pack page))) dict;
  { n_users = t.n_users; dict; dense; ranks }

(** Concatenate traces over the same user universe. *)
let append a b =
  if a.n_users <> b.n_users then invalid_arg "Trace.append: user-count mismatch";
  of_pages ~n_users:a.n_users (Array.append (requests a) (requests b))

(** Distinct pages, in first-touch order (the interning vocabulary). *)
let distinct_pages t = Array.to_list t.dict

(** Append the paper's terminal flush: a dummy user owning [k] fresh
    pages, all requested once at the end, forcing every real page out of
    a size-k cache.  The dummy user gets id [n_users] (so the result has
    [n_users + 1] users); its cost function should be zero. *)
let with_flush ~k t =
  if k <= 0 then invalid_arg "Trace.with_flush: k must be positive";
  let dummy = Array.init k (fun i -> Page.make ~user:t.n_users ~id:i) in
  of_pages ~n_users:(t.n_users + 1) (Array.append (requests t) dummy)

module Index = struct
  (* Flat per-position int arrays; the per-page working arrays of
     [build] (request counts, last positions) are indexed by dense id,
     so no hashtable is touched. *)
  type t = {
    interval : int array;
        (** [interval.(pos)] = j(p,pos): 1-based index of this request
            among all requests of the same page. *)
    next_use : int array;
        (** position of the next request of the same page, or
            [Int.max_int] if none. *)
    distinct_upto : int array;
        (** [distinct_upto.(pos)] = |B(t)| after including this request. *)
  }

  let build trace =
    let dense = trace.dense in
    let p = n_pages trace in
    let n = A1.dim dense in
    let interval = Array.make n 0 in
    let next_use = Array.make n Int.max_int in
    let distinct_upto = Array.make n 0 in
    let counts = Array.make p 0 in
    let last_pos = Array.make p (-1) in
    let distinct = ref 0 in
    for pos = 0 to n - 1 do
      let d = unsafe_id_at dense pos in
      (* checked once: a file rewritten in place under its mapping
         could hold any id *)
      let c = counts.(d) in
      Array.unsafe_set counts d (c + 1);
      Array.unsafe_set interval pos (c + 1);
      let prev = Array.unsafe_get last_pos d in
      if prev >= 0 then Array.unsafe_set next_use prev pos else incr distinct;
      Array.unsafe_set last_pos d pos;
      Array.unsafe_set distinct_upto pos !distinct
    done;
    { interval; next_use; distinct_upto }

  (** j(p, pos): which interval of page p the position falls in. *)
  let interval_index t pos = t.interval.(pos)
    [@@effects.no_alloc] [@@effects.deterministic]

  let next_use t pos = t.next_use.(pos)
    [@@effects.no_alloc] [@@effects.deterministic]

  let distinct_upto t pos = t.distinct_upto.(pos)
    [@@effects.no_alloc] [@@effects.deterministic]
end
