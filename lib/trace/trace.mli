(** Request sequences and their static index.

    A trace is the online input sigma = (p_1, ..., p_T).  Positions are
    0-based throughout the code base; the paper's time t corresponds to
    position [t - 1].  {!Index.build} precomputes in O(T) the
    bookkeeping of paper Section 2 that its readers use: interval
    indices [j(p,t)] and distinct counts [|B(t)|] (the convex
    program's variables and constraints), and next-use links
    (Belady-style offline policies). *)

type t
(** A trace is its dense interning, built eagerly by every constructor:
    a dictionary of its P distinct pages in first-touch order (dense id
    [d] names the [d]-th page first requested), one dense id per
    request, and an interner from packed pages to dense ids.  No
    [Page.t array] of length T is kept.  A trace is immutable once
    built, so it can be shared across domains. *)

val length : t -> int
val n_users : t -> int

val request : t -> int -> Page.t
(** Request at a 0-based position: the dictionary entry of its dense
    id. *)

val requests : t -> Page.t array
(** The request sequence, as a fresh array built on each call: O(T),
    for callers outside a hot loop. *)

val of_pages : n_users:int -> Page.t array -> t
(** Interns the array in one pass; the array is not kept.
    @raise Invalid_argument if [n_users <= 0] or a page's user is
    outside [\[0, n_users)]. *)

val of_list : n_users:int -> Page.t list -> t

val of_dense : n_users:int -> pages:Page.t array -> dense:int array -> t
(** Build a trace from its interned form: [pages] lists the distinct
    pages in first-touch order, [dense.(pos)] is the rank (index into
    [pages]) of the request at [pos].  This is the in-memory mirror of
    the binary trace format ({!Trace_binary}), whose reader decodes
    straight into [dense].  The trace takes both arrays over without a
    copy: the caller must never write to them again.
    @raise Invalid_argument if the remap is not well-formed: a rank out
    of range, first occurrences out of rank order, a page listed but
    never requested, duplicate pages, or a user outside
    [\[0, n_users)]. *)

val select : t -> int array -> t
(** [select t ids] is the trace of the requests [ids], a sequence of
    [t]'s dense ids: equal to [of_pages ~n_users:(n_users t)] of their
    pages (the same dictionary, dense ids and interner ranks), but
    built by a remap of [t]'s ids in O(length ids + n_pages t), with one
    interning per selected page and none per request.  [ids] is not
    kept.
    @raise Invalid_argument if an id is outside [\[0, n_pages t)]. *)

(** {1 Dense page interning}

    The dense ids [\[0, P)] key {!Index.build}'s flat-array index, the
    engine's cache set and the binary trace format. *)

val n_pages : t -> int
(** Number of distinct pages, P.  O(1). *)

val dense : t -> int array
(** Per-position dense ids: [dense t] has one entry per request, each
    in [\[0, n_pages t)] (do not mutate). *)

val pages : t -> Page.t array
(** The dictionary: [(pages t).(d)] is the page with dense id [d]
    (do not mutate). *)

val interner : t -> Ccache_util.Interner.t
(** Packed page -> dense id ({!Ccache_util.Interner.find} gives [-1]
    for a page the trace never requests): the one key space of every
    engine run over the trace, which the engine hands its policy.
    Read-only: interning a new key into it would break the trace. *)

val page_of_dense : t -> int -> Page.t
(** Page with the given dense id (its first-touch rank). *)

val append : t -> t -> t
(** Concatenation; both traces must agree on [n_users]. *)

val distinct_pages : t -> Page.t list
(** In first-touch order. *)

val with_flush : k:int -> t -> t
(** The paper's terminal flush (Section 2.1): appends one request to
    each of [k] fresh pages owned by a new dummy user (id = previous
    [n_users]); the result has one more user.  The dummy's cost is
    infinite in the paper — the engine and the convex program pin its
    pages instead (see {!Ccache_sim.Engine.run} and
    {!Ccache_cp.Formulation.of_trace}). *)

module Index : sig
  type trace := t
  type t
  (** Three T-length int arrays, one per query below. *)

  val build : trace -> t
  (** O(T) single pass. *)

  val interval_index : t -> int -> int
  (** [interval_index t pos] = j(p, pos): 1-based rank of this request
      among all requests of the same page. *)

  val next_use : t -> int -> int
  (** Position of the next request of the same page, or [Int.max_int]. *)

  val distinct_upto : t -> int -> int
  (** [|B(t)|] after including the request at this position. *)
end
