(** Storage layout of a tenant's database.

    Each tenant owns a set of tables.  A table is a clustered B-tree:
    a region of index pages (root + internal levels, sized by the
    fanout) followed by a region of data (leaf) pages.  Tables are
    laid out back to back in the tenant's page-id space, so every page
    id a query touches maps to exactly one (tenant, table, role).

    This is the minimal storage model needed to make buffer-pool
    traces look like the SQLVM workloads of the paper's motivation:
    hot shared index roots, skewed point reads, and long sequential
    leaf scans. *)

type table_spec = {
  data_pages : int;  (** leaf pages holding rows *)
  fanout : int;  (** B-tree fanout; >= 2 *)
}

let table_spec ?(fanout = 64) ~data_pages () =
  if data_pages <= 0 then invalid_arg "Schema.table_spec: data_pages must be positive";
  if fanout < 2 then invalid_arg "Schema.table_spec: fanout must be >= 2";
  { data_pages; fanout }

(** Number of index levels above the leaves: ceil(log_fanout data_pages),
    at least 1 (the root always exists). *)
let index_depth spec =
  let rec go covered depth =
    if covered >= spec.data_pages then depth
    else go (covered * spec.fanout) (depth + 1)
  in
  go 1 0 |> Stdlib.max 1

(** Index pages per level, root first: level l (0 = root) has
    ceil(data_pages / fanout^(depth - l)) pages, at least 1. *)
let index_level_sizes spec =
  let depth = index_depth spec in
  List.init depth (fun l ->
      let divisor = Float.pow (float_of_int spec.fanout) (float_of_int (depth - l)) in
      Stdlib.max 1
        (int_of_float (ceil (float_of_int spec.data_pages /. divisor))))

let index_pages spec = List.fold_left ( + ) 0 (index_level_sizes spec)

let total_pages spec = index_pages spec + spec.data_pages

type table = {
  id : int;
  spec : table_spec;
  base : int;  (** first page id of this table within the tenant *)
}

type t = table array

let create specs =
  if specs = [] then invalid_arg "Schema.create: no tables";
  let base = ref 0 in
  let tables =
    List.mapi
      (fun id spec ->
        let t = { id; spec; base = !base } in
        base := !base + total_pages spec;
        t)
      specs
  in
  Array.of_list tables

let table t id =
  if id < 0 || id >= Array.length t then
    invalid_arg "Schema.table: unknown table";
  t.(id)

let n_tables t = Array.length t

(** Page id of the [i]-th index page at [level] (0 = root) of [tbl]. *)
let index_page tbl ~level ~slot =
  let sizes = index_level_sizes tbl.spec in
  if level < 0 || level >= List.length sizes then
    invalid_arg "Schema.index_page: bad level";
  let offset = List.fold_left ( + ) 0 (List.filteri (fun l _ -> l < level) sizes) in
  let width = List.nth sizes level in
  tbl.base + offset + (slot mod width)

(** Page id of the [i]-th data (leaf) page of [tbl]. *)
let data_page tbl i =
  if i < 0 || i >= tbl.spec.data_pages then
    invalid_arg "Schema.data_page: leaf out of range";
  tbl.base + index_pages tbl.spec + i
