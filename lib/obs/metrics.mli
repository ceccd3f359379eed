(** Counters, gauges and fixed-bucket histograms.

    All recording calls are no-ops while {!Control.enabled} is false
    (one atomic load + branch).  Writes go to the calling domain's
    {!Sink} shard, lock-free; {!snapshot} merges all shards.

    Merge semantics — associative and commutative by construction (and
    property-tested), so snapshots are independent of [--jobs] width
    and worker interleaving:
    - counters add;
    - histograms add bucket-wise ([Invalid_argument] if the same name
      was recorded with different bounds);
    - a gauge resolves to the write with the largest [(domain, seq)]
      stamp. *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to the named counter. *)

val set_gauge : string -> float -> unit
(** Record the gauge's current value. *)

val observe : ?bounds:float array -> string -> float -> unit
(** Add an observation to the named histogram.  [bounds] (default
    [0, 0.5, 1, 2, 5, ..., 1000, 10000] plus an implicit overflow
    bucket) takes effect on the first observation per name
    per shard; every call site for a given name must pass the same
    bounds or merging raises. *)

type hist_snapshot = {
  bounds : float array;
  counts : int array;  (** length = [Array.length bounds + 1] *)
  sum : float;
  count : int;
}

type gauge_snapshot = { g_domain : int; g_seq : int; g_value : float }

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * gauge_snapshot) list;  (** sorted by name *)
  hists : (string * hist_snapshot) list;  (** sorted by name *)
}

val empty : snapshot

val merge : snapshot -> snapshot -> snapshot
(** @raise Invalid_argument on histogram bounds mismatch. *)

val snapshot : unit -> snapshot
(** Merge of every registered shard, in domain-id order. *)

val reset : unit -> unit
(** Clear all recorded metrics and spans (new {!Sink} generation). *)
