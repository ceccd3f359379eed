(** Pages and their owning users.

    Every page belongs to exactly one user (the paper's [P_i]
    partition).  User ids are dense integers [0 .. n-1]; page ids are
    arbitrary non-negative integers, unique within a user.

    A page is a single tagged int — [(user lsl 38) lor id], user in the
    high 24 bits — so pages are immediate values: no allocation on
    construction, integer equality/ordering, and hash-table keys that
    never chase a pointer.  {!make} enforces [user <= 2^24 - 1] and
    [id <= 2^38 - 1]; the packed form is always non-negative. *)

type t = private int

val make : user:int -> id:int -> t
(** @raise Invalid_argument on negative components or components
    exceeding the packed field widths (user: 24 bits, id: 38 bits). *)

val max_user : int
(** Largest user id a page can hold, [2^24 - 1]. *)

val max_id : int
(** Largest page id a page can hold, [2^38 - 1]. *)

val user : t -> int
val id : t -> int

val pack : t -> int
(** The packed integer form (the identity on the runtime value).
    Always non-negative, so it can key int-specialised containers
    directly. *)

val unpack : int -> t
(** Inverse of {!pack}.  @raise Invalid_argument if the integer is not
    a well-formed packed page (negative, or user field out of range). *)

val compare : t -> t -> int
(** Orders by user, then id — the deterministic tie-break order used
    throughout the algorithms.  Coincides with [Int.compare] on the
    packed form by construction. *)

val equal : t -> t -> bool

val to_string : t -> string

module Key : Hashtbl.HashedType with type t = t
module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
