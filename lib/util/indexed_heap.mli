(** Binary min-heap over the integer keys [\[0, n)] with float
    priorities and O(log n) arbitrary update/removal.

    Used by the fast ALG-DISCRETE implementation (per-user budget heaps
    and the cross-user minimum structure) and by priority-based
    eviction policies (Landlord, LFU, LRU-K, Belady, convex-Belady),
    each over its run's dense key space.  Ties break toward the smaller
    tie value, which is the key itself unless [create] is given
    [~ties], making every operation fully deterministic.

    Layout: structure-of-arrays (flat [int array] keys and tie values,
    a [floatarray] of priorities, and an [n]-entry key -> slot array),
    so the mutating operations allocate nothing once the slot arrays
    are at capacity; they grow by doubling, up to [n].  A key outside
    [\[0, n)] is rejected with [Invalid_argument] by every operation
    that takes one. *)

type t

val create : ?ties:int array -> n:int -> unit -> t
(** [create ~n ()] is an empty heap over the keys [\[0, n)].  With
    [~ties], key [k]'s priority ties break on [ties.(k)] instead of
    [k].
    @raise Invalid_argument if [n < 0] or [ties] has fewer than [n]
    entries. *)

val length : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

val add : t -> key:int -> prio:float -> unit
(** @raise Invalid_argument on a duplicate key. *)

val priority : t -> int -> float
(** @raise Not_found if absent. *)

val min_key_exn : t -> int
(** Key of the minimum entry, not removed.  Allocates nothing — the
    hot-path accessor for eviction loops.
    @raise Invalid_argument on an empty heap. *)

val min_prio_exn : t -> float
(** Priority of the minimum entry, not removed.
    @raise Invalid_argument on an empty heap. *)

val pop : t -> (int * float) option

val remove : t -> int -> unit
(** Remove an arbitrary key. @raise Not_found if absent. *)

val update : t -> key:int -> prio:float -> unit
(** Change an existing key's priority (up or down).
    @raise Not_found if absent. *)

val set : t -> key:int -> prio:float -> unit
(** Insert or update. *)

val invariant_ok : t -> bool
(** Heap order and index consistency; used by tests. *)
