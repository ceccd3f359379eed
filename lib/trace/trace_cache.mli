(** Fingerprinted on-disk trace cache.

    Keyed by an FNV-1a-64 hash of a caller-supplied fingerprint string
    (for generated workloads: seed, length, and a canonical rendering
    of the tenant specs — see {!Workloads.generate}).  A [.fp] sidecar
    holds the full fingerprint so hash collisions degrade to misses.
    Cache-write failures are swallowed: the cache can only trade speed,
    never correctness.  Safe under concurrent writers (atomic
    tmp+rename, identical bytes per key). *)

val set_dir : string option -> unit
(** Enable the cache at a directory (created on first store), or
    disable it with [None] (the default). *)

val memoize : fingerprint:string -> (unit -> Trace.t) -> Trace.t
(** Return the cached trace for [fingerprint], or run the generator,
    store its result, and return it.  Pass-through when disabled. *)

val key_of_fingerprint : string -> string
(** The 16-hex-digit file stem a fingerprint maps to (exposed for
    tests and tooling). *)
