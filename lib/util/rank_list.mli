(** Doubly linked lists over dense ranks.

    One [t] holds a fixed family of lists, numbered [\[0, lists)], over
    the ranks [\[0, ranks)] of one key space: a policy passes its run's
    {!Interner} length, so the ranks are the trace's dense ids.  Each
    rank is in at most one list at a time, so a rank's list, its
    neighbours and the list ends live in flat [int array]s indexed by
    rank, sized once by [create]: pushing, removing and asking which
    list holds a rank are O(1) and allocate nothing.

    Pushing a rank outside [\[0, ranks)] or already in a list, and
    removing a rank that is in none, raise [Invalid_argument], which is
    what guards a policy against splicing a page into two lists at
    once. *)

type t

val create : ranks:int -> lists:int -> t
(** [create ~ranks ~lists] is a family of [lists] empty lists over the
    ranks [\[0, ranks)].
    @raise Invalid_argument if [lists < 1] or [ranks < 0]. *)

val length : t -> int -> int
(** Number of ranks in the given list. *)

val owner : t -> int -> int
(** The list holding the rank, or [-1] if it is in none (including a
    rank never pushed, and any rank outside [\[0, ranks)]). *)

val push_front : t -> int -> int -> unit
(** [push_front t l r] puts rank [r] at the front of list [l].
    @raise Invalid_argument if [r] is outside [\[0, ranks)] or already
    in a list. *)

val push_back : t -> int -> int -> unit
(** As {!push_front}, at the back. *)

val remove : t -> int -> unit
(** Take the rank out of its list.
    @raise Invalid_argument if it is in none. *)

val front : t -> int -> int
(** First rank of the list, or [-1] if it is empty. *)

val back : t -> int -> int
(** Last rank of the list, or [-1] if it is empty. *)

val to_list : t -> int -> int list
(** The list's ranks, front to back. *)

val invariant_ok : t -> bool
(** Links, ends, lengths and owners agree; used by tests. *)
