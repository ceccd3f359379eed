(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the library draws from this generator
    so that traces, workloads and experiments are bit-for-bit
    reproducible across runs and platforms.  The stdlib [Random] module
    is deliberately not used anywhere in the repository. *)

type t
(** Generator state (mutable). *)

val create : seed:int -> t
(** Fresh generator from an integer seed. *)

val copy : t -> t
(** Independent copy continuing from the same state. *)

val split : t -> t
(** [split t] derives an independent child generator; the parent
    advances, so repeated splits yield distinct streams. *)

val hash_string : string -> int64
(** Deterministic, platform-independent 64-bit FNV-1a hash (unlike
    [Hashtbl.hash], stable across OCaml versions). *)

val hash_decimals : int -> (int -> int) -> int64
(** [hash_decimals n f] is [hash_string] of the concatenation of
    [string_of_int (f i) ^ ","] for [i = 0 .. n-1], computed while
    streaming the digits: no string is built, and nothing is allocated
    per element. *)

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

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** Success with probability [p]. *)

val exponential : t -> rate:float -> float
(** Exponential variate. @raise Invalid_argument if [rate <= 0]. *)

val geometric : t -> p:float -> int
(** Number of failures before the first success.
    @raise Invalid_argument unless [0 < p <= 1]. *)

val categorical : t -> weights:float array -> int
(** Index sampled proportionally to unnormalised non-negative
    [weights]. @raise Invalid_argument if they sum to 0 or less. *)

val shuffle : t -> 'a array -> 'a array
(** Shuffled copy; the input is untouched. *)

val sample_distinct : t -> bound:int -> count:int -> int array
(** [count] distinct values from [\[0, bound)].
    @raise Invalid_argument if [count > bound]. *)
