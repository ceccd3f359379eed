(** First-touch interner: int keys onto the dense ranks [\[0, n)].

    A key's rank is the number of distinct keys interned before it was
    first seen, so ranks depend only on the order keys arrive in, never
    on a hash.  This is the one place first-touch ranks are assigned:
    {!Ccache_trace.Trace}'s dense interning and the external
    address-trace readers go through it.  A trace's interner is then
    the key space of every engine run over it: the engine's cache set
    and every policy {!find} pages in it (the heap-backed ones key
    their {!Indexed_heap} by the rank, the list-backed ones index their
    {!Rank_list} by it, the random ones their {!Rank_set}), and nothing
    interns into it after the trace is built.

    Layout: an open-addressing key -> rank table (linear probing at a
    load below 1/2, so two flat [int array]s) plus a flat rank -> key
    array; {!intern} and {!find} allocate nothing once both are at
    capacity, and growth is amortised doubling.  It is the one hash
    table on the request path.  The key [min_int] marks a free table
    slot and is rejected with [Invalid_argument]. *)

type t

val create : capacity:int -> t
(** [create ~capacity] has room for [capacity] keys before either
    array grows.
    @raise Invalid_argument if no array can hold the table that many
    keys need. *)

val length : t -> int
(** Distinct keys interned so far. *)

val intern : t -> int -> int
(** Rank of the key, assigning the next rank on first sight. *)

val find : t -> int -> int
(** Rank of the key, or [-1] if it was never interned. *)

val key : t -> int -> int
(** Key holding the given rank.
    @raise Invalid_argument outside [\[0, length t)]. *)

val mean_displacement : t -> float
(** Mean number of table slots between a key's home slot and the slot
    holding it (0 when empty): the hash-quality measure the tests
    bound. *)
