(** Atomic on-disk snapshots of completed task payloads.

    A checkpoint maps task ids to opaque byte payloads (the supervised
    runner stores each task's {e encoded result}, e.g. a rendered
    experiment section).  Snapshots are written atomically — full
    contents to [path ^ ".tmp"], then [Sys.rename] — so the file on
    disk is always a complete, parseable snapshot even if the process
    dies mid-flush.  Entries are serialised sorted by id, making the
    bytes a function of the contents alone, not of the completion order
    across worker domains.

    The {e fingerprint} is a caller-supplied single-line digest of
    everything that affects task outputs (experiment ids, size, format,
    seed, ...).  {!load} refuses a file whose stored fingerprint
    differs, which is what makes [--resume] safe: a checkpoint can only
    replay into the run configuration that wrote it, so replayed cells
    are bit-identical by construction.

    All operations are mutex-guarded; worker domains may {!record}
    concurrently. *)

type t

val create : ?flush_every:int -> path:string -> fingerprint:string -> unit -> t
(** Fresh, empty checkpoint bound to [path] (nothing is written until
    the first flush).  [flush_every] (default 1) batches that many
    {!record}s per snapshot write.
    @raise Invalid_argument on an empty path, a multi-line
    fingerprint, or [flush_every < 1]. *)

val load : ?flush_every:int -> path:string -> fingerprint:string -> unit -> (t, string) result
(** Parse an existing snapshot.  [Error _] on a missing or corrupt
    file, or when the stored fingerprint differs from [fingerprint]
    (the error message says which). *)

val load_or_create :
  ?flush_every:int -> path:string -> fingerprint:string -> unit -> (t, string) result
(** {!load} when [path] exists, fresh {!create} otherwise. *)

val record : t -> id:string -> string -> unit
(** Store (or overwrite) a payload; flushes automatically every
    [flush_every] records.  @raise Invalid_argument on a multi-line
    id (payloads may contain anything). *)

val flush : t -> unit
(** Write the snapshot now (atomic temp-file + rename). *)

val find : t -> string -> string option

val ids : t -> string list
(** Completed task ids, sorted. *)

val length : t -> int
