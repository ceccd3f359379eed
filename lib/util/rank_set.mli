(** Sets over dense ranks with uniform access by position.

    One [t] holds a subset of the ranks [\[0, ranks)] of one key space:
    a policy passes its run's {!Interner} length, so the ranks are the
    trace's dense ids.  Members sit in a flat array in insertion order,
    except that {!remove} moves the last member into the hole it
    leaves; a rank -> position array makes [add], [remove], [mem] and
    [nth] O(1), and none of them allocates.  The member order is what
    a policy's seeded draw over [\[0, length)] picks from, so it is part
    of the contract.

    Adding a rank outside [\[0, ranks)] or already a member, and
    removing a rank that is not one, raise [Invalid_argument]. *)

type t

val create : ranks:int -> t
(** [create ~ranks] is the empty set over the ranks [\[0, ranks)].
    @raise Invalid_argument if [ranks < 0]. *)

val length : t -> int
(** Number of members. *)

val mem : t -> int -> bool
(** Whether the rank is a member ([false] outside [\[0, ranks)]). *)

val add : t -> int -> unit
(** Append the rank to the member order.
    @raise Invalid_argument if it is outside [\[0, ranks)] or already a
    member. *)

val remove : t -> int -> unit
(** Take the rank out, moving the last member into its position.
    @raise Invalid_argument if it is not a member. *)

val nth : t -> int -> int
(** The member at the given position of the member order.
    @raise Invalid_argument outside [\[0, length t)]. *)
