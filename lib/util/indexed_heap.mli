(** Binary min-heap over integer keys with float priorities and
    O(log n) arbitrary update/removal via a key->slot index.

    Used by the fast ALG-DISCRETE implementation (per-user budget heaps
    and the cross-user minimum structure) and by priority-based
    eviction policies (Landlord, Belady).  Ties break toward the
    smaller key, making every operation fully deterministic.

    Layout: structure-of-arrays (flat [int array] keys + [floatarray]
    priorities + an open-addressing {!Int_tbl} key->slot index), so the
    mutating operations allocate nothing once the arrays are at
    capacity.  The key [min_int] is reserved by the index and rejected
    with [Invalid_argument]. *)

type t

val create : ?capacity:int -> unit -> t
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
