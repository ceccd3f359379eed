(** Zipf-distributed sampling over [\[0, n)].

    Buffer-pool page popularity is classically heavy-tailed; the
    SQLVM-style workloads sample page ids from Zipf(s) where [s] is the
    skew exponent (s = 0 degenerates to uniform).  Sampling uses the
    inverse-CDF over precomputed cumulative weights: O(n) setup and
    O(log n) per sample, exact (no rejection). *)

type t = {
  n : int;
  skew : float;
  cumulative : float array; (* cumulative.(i) = sum_{j<=i} w_j, normalised *)
}

let create ~n ~skew =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if skew < 0.0 then invalid_arg "Zipf.create: negative skew";
  let weights = Array.init n (fun i -> Float.pow (float_of_int (i + 1)) (-.skew)) in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cumulative.(i) <- !acc)
    weights;
  let total = !acc in
  Array.iteri (fun i c -> cumulative.(i) <- c /. total) cumulative;
  { n; skew; cumulative }

(** Probability mass of rank [i] (0-based; rank 0 is most popular). *)
let pmf t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.pmf: rank out of range";
  if i = 0 then t.cumulative.(0) else t.cumulative.(i) -. t.cumulative.(i - 1)

(** Draw a rank in [\[0, n)]. *)
let sample t rng =
  let u = Ccache_util.Prng.float rng in
  (* least i with cumulative.(i) > u *)
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cumulative.(mid) > u then bsearch lo mid else bsearch (mid + 1) hi
  in
  bsearch 0 (t.n - 1)
