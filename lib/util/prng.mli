(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the library draws from this generator
    so that traces, workloads and experiments are bit-for-bit
    reproducible across runs and platforms.  The stdlib [Random] module
    is deliberately not used anywhere in the repository. *)

type t
(** Generator state (mutable). *)

val create : seed:int -> t
(** Fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent child generator; the parent
    advances, so repeated splits yield distinct streams. *)

val hash_string : string -> int64
(** Deterministic, platform-independent 64-bit FNV-1a hash (unlike
    [Hashtbl.hash], stable across OCaml versions). *)

val hash_decimals :
  n:int ->
  (int -> int) ->
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int64
(** [hash_decimals ~n value ids] is [hash_string] of the concatenation
    of [string_of_int (value d) ^ ","] for the id [d] at every position
    of [ids], in order, computed in one pass over [ids] without building
    that string.  The ids are unsigned 32-bit integers
    ({!Ccache_trace.Trace.ids}, a trace's dense ids).
    When [ids] has at least 4 elements per id of [\[0, n)], every id
    owns a 21-byte slot: the first time [d] appears, [value d] is
    rendered there (two digits per division) and its length kept in
    the slot's first byte, and every later appearance only hashes the
    slot's digits and the comma.  So [value] is called once per
    distinct id, in order of first appearance, and the slots take 21
    bytes per id (at most 5.25 per element of [ids]), allocated once.
    With fewer elements per id, repeats are too rare to repay a slot:
    [value] is called and rendered on every element, in order, into
    one scratch slot.  Nothing is allocated per element of [ids].
    @raise Invalid_argument if [n] is negative or an id is outside
    [\[0, n)]. *)

val derive : seed:int -> key:string -> t
(** [derive ~seed ~key] is a stream that depends only on [(seed, key)]
    — not on any split order — so a task's stream can be re-derived
    from its id alone.  This is what makes supervised retries and
    checkpoint resumes bit-reproducible: every attempt of task [key]
    starts from the same state. *)

val next_int64 : t -> int64
(** Raw 64-bit output (advances the state). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val float_range : t -> float -> float
(** [float_range t hi] is uniform in [\[0, hi)]. *)

val bernoulli : t -> p:float -> bool
(** Success with probability [p]. *)

val categorical : t -> weights:float array -> int
(** Index sampled proportionally to unnormalised non-negative
    [weights]. @raise Invalid_argument if they sum to 0 or less. *)
