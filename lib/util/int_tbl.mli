(** Open-addressing int->int hash table.

    A cache-friendly replacement for [(int, int) Hashtbl.t] on hot
    paths: two flat [int array]s (keys and values), linear probing at a
    maximum load factor of 1/2, and backward-shift deletion instead of
    tombstones, so probe lengths depend only on the current load — not
    on how many insert/remove cycles the table has survived.  No
    operation allocates once the slot arrays are at capacity; growth is
    amortised doubling.

    The key [min_int] is reserved as the empty-slot marker; every
    operation rejects it with [Invalid_argument].  All page/slot keys
    in this repository are non-negative, so the restriction is never
    observable in practice.

    Used by {!Indexed_heap} (key -> heap slot) and the engine's cache
    set (packed page -> presence). *)

type t

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] allocates [capacity] slots rounded up to a
    power of two (minimum 8); the table doubles as soon as half of them
    are full.
    @raise Invalid_argument if no array can hold that many slots. *)

val length : t -> int

val mem : t -> int -> bool

val find_default : t -> int -> default:int -> int
(** Value bound to the key, or [default].  Never allocates. *)

val find_exn : t -> int -> int
(** @raise Not_found if the key is absent. *)

val set : t -> int -> int -> unit
(** Insert or overwrite. *)

val remove : t -> int -> bool
(** Remove the key if present; returns whether it was. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val clear : t -> unit
(** Empty the table, keeping its capacity. *)

val invariant_ok : t -> bool
(** Probe-consistency and size bookkeeping; used by tests. *)
