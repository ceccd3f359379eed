(** Intrusive doubly-linked list with O(1) splicing.

    Backbone of the LRU/FIFO/LRU-K recency structures: nodes are
    exposed so a policy can keep a hashtable from page to node and
    move/remove a node in O(1) without search.  Every operation checks
    node ownership, so cross-list splicing and double insertion raise
    instead of corrupting the structure. *)

type 'a node
type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val node : 'a -> 'a node
(** A fresh detached node carrying the value. *)

val value : 'a node -> 'a

val push_front : 'a t -> 'a node -> unit
(** @raise Invalid_argument if the node is already in a list. *)

val push_back : 'a t -> 'a node -> unit

val remove : 'a t -> 'a node -> unit
(** Detach; the node may be reinserted afterwards.
    @raise Invalid_argument if the node is not in this list. *)

val front : 'a t -> 'a node option
val back : 'a t -> 'a node option
val pop_front : 'a t -> 'a node option
val pop_back : 'a t -> 'a node option

val move_to_front : 'a t -> 'a node -> unit
(** LRU "touch". @raise Invalid_argument if not a member. *)

val move_to_back : 'a t -> 'a node -> unit

val to_list : 'a t -> 'a list
(** Front-to-back element values. *)

val invariant_ok : 'a t -> bool
(** Structural consistency (links, ownership, size); used by tests. *)
