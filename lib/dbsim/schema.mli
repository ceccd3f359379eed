(** Storage layout of a tenant's database: tables as clustered
    B-trees (index region + leaf region) laid out back to back in the
    tenant's page-id space.  The minimal model needed to make
    buffer-pool traces look like the SQLVM workloads: hot index roots,
    skewed point reads, sequential leaf scans. *)

type table_spec = private {
  data_pages : int;
  fanout : int;
}

val table_spec : ?fanout:int -> data_pages:int -> unit -> table_spec
(** Defaults: fanout 64. @raise Invalid_argument on non-positive
    pages or fanout < 2. *)

val index_depth : table_spec -> int
(** Index levels above the leaves (>= 1; the root always exists). *)

val index_level_sizes : table_spec -> int list
(** Pages per index level, root (size 1) first. *)

val index_pages : table_spec -> int
val total_pages : table_spec -> int

type table = private { id : int; spec : table_spec; base : int }

type t

val create : table_spec list -> t
val table : t -> int -> table
val n_tables : t -> int

val index_page : table -> level:int -> slot:int -> int
(** Page id of an index page (level 0 = root; slots wrap). *)

val data_page : table -> int -> int
(** Page id of the i-th leaf. @raise Invalid_argument out of range. *)
