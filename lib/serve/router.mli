(** Shard routing: the deterministic page-space partition of the
    serving layer.

    Two partitions of the request stream across [shards] engine
    shards:

    - {b page-hash} — shard = avalanche-mixed packed page modulo
      [shards].  Spreads every tenant across all shards, so per-shard
      load tracks aggregate load; this is the partition the
      differential harness exercises (a page's shard is a pure
      function of the page, so any trace splits into per-shard
      sub-traces independent of scheduling).
    - {b tenant} — shard = [assignment.(user)].  All of a tenant's
      pages live on one shard, keeping per-tenant state sparse (one
      shard touches it) — the {!Ccache_multipool.Multi_engine} pool
      model lifted onto the service; the default assignment is the
      same round-robin [user mod shards]. *)

open Ccache_trace

type t

val by_page : shards:int -> t
(** @raise Invalid_argument if [shards <= 0]. *)

val by_tenant : ?assignment:int array -> shards:int -> n_users:int -> unit -> t
(** [assignment.(user)] is the user's shard; defaults to round-robin
    [user mod shards].  @raise Invalid_argument on [shards <= 0], an
    assignment/users length mismatch, or an entry outside
    [\[0, shards)]. *)

val shards : t -> int

val name : t -> string
(** ["page"] or ["tenant"] — stable, used in fingerprints and
    reports. *)

val route : t -> Page.t -> int
(** The page's shard, in [\[0, shards)].  Deterministic: depends only
    on the router value and the page. *)

val split : t -> Trace.t -> Trace.t array
(** Per-shard sub-traces: element [s] holds, in trace order, exactly
    the requests with [route t page = s].  Every sub-trace keeps the
    original [n_users].  The differential baseline: a service run that
    never rejects must process precisely these sequences. *)
