(** Zipf-distributed sampling over [\[0, n)].

    Inverse-CDF over precomputed cumulative weights: O(n) setup,
    O(log n) exact sampling.  Skew 0 degenerates to uniform. *)

type t

val create : n:int -> skew:float -> t
(** @raise Invalid_argument if [n <= 0] or [skew < 0]. *)

val pmf : t -> int -> float
(** Probability of rank [i] (rank 0 is most popular). *)

val sample : t -> Ccache_util.Prng.t -> int
