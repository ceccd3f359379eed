(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the library draws from this generator so
    that traces, workloads and experiments are bit-for-bit reproducible
    across runs and platforms.  The stdlib [Random] module is deliberately
    not used anywhere in the repository. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

(* SplitMix64 finalizer: one 64-bit output per step. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [split t] derives an independent generator; the parent advances. *)
let split t =
  let seed = next_int64 t in
  { state = seed }

(* FNV-1a, 64-bit: a deterministic, platform-independent string hash
   (Hashtbl.hash is unspecified across versions, so it would break the
   bit-reproducibility contract).  Both hashes below keep the
   accumulator in a local loop variable, which ocamlopt holds unboxed;
   captured by a closure it would box one Int64 per byte. *)
let fnv_offset = 0xCBF29CE484222325L

let[@inline] fnv_step h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L

let hash_string s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := fnv_step !h (String.unsafe_get s i)
  done;
  !h

(* [digit_pairs.[2d]] and [.[2d + 1]] render d in [0, 99] as two digits *)
let digit_pairs =
  String.init 200 (fun i ->
      let d = i / 2 in
      Char.chr (48 + if i land 1 = 0 then d / 10 else d mod 10))

let[@inline] set_pair buf k d =
  Bytes.unsafe_set buf k (String.unsafe_get digit_pairs (2 * d));
  Bytes.unsafe_set buf (k + 1) (String.unsafe_get digit_pairs ((2 * d) + 1))

let hash_decimals n f =
  (* 20 bytes: the longest rendering is min_int's sign and 19 digits *)
  let buf = Bytes.create 20 in
  let h = ref fnv_offset in
  for i = 0 to n - 1 do
    let v = f i in
    (* digits come from the non-positive side, so min_int cannot
       overflow; one division renders two of them *)
    let r = ref (if v < 0 then v else -v) and k = ref 20 in
    while !r <= -100 do
      let q = !r / 100 in
      k := !k - 2;
      set_pair buf !k ((q * 100) - !r);
      r := q
    done;
    if !r <= -10 then begin
      k := !k - 2;
      set_pair buf !k (- !r)
    end
    else begin
      decr k;
      Bytes.unsafe_set buf !k (Char.unsafe_chr (48 - !r))
    end;
    if v < 0 then begin
      decr k;
      Bytes.unsafe_set buf !k '-'
    end;
    for j = !k to 19 do
      h := fnv_step !h (Bytes.unsafe_get buf j)
    done;
    h := fnv_step !h ','
  done;
  !h

(** [derive ~seed ~key] keys a fresh stream on [(seed, key)] alone — no
    split-order dependence — so supervised retries and checkpoint
    resumes can rebuild a task's exact stream from its id. *)
let derive ~seed ~key =
  let t =
    { state = Int64.logxor (Int64.mul (Int64.of_int seed) golden_gamma) (hash_string key) }
  in
  (* one step so that correlated (seed, key) pairs decorrelate through
     the SplitMix64 finalizer before the first caller-visible draw *)
  ignore (next_int64 t);
  t

(** Uniform integer in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* 62 high bits so the value fits OCaml's 63-bit int; modulo bias is
     negligible for bound << 2^62 and irrelevant for workload
     generation. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

(** Uniform float in [\[0, 1)]. *)
let float t =
  let v = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

(** Uniform float in [\[0, hi)]. *)
let float_range t hi = float t *. hi

(** Bernoulli trial with success probability [p]. *)
let bernoulli t ~p = float t < p

(** Sample an index from unnormalised non-negative [weights]. *)
let categorical t ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Prng.categorical: weights must sum > 0";
  let target = float t *. total in
  let n = Array.length weights in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else go (i + 1) acc
  in
  go 0 0.0
