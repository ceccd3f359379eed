(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the library draws from this generator so
    that traces, workloads and experiments are bit-for-bit reproducible
    across runs and platforms.  The stdlib [Random] module is deliberately
    not used anywhere in the repository. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

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

let hash_decimals n f =
  (* 20 bytes: the longest rendering is min_int's sign and 19 digits *)
  let buf = Bytes.create 20 in
  (* digits come from the non-positive side, so min_int cannot overflow *)
  let digit r = Char.unsafe_chr (48 - (r mod 10)) in
  let h = ref fnv_offset in
  for i = 0 to n - 1 do
    let v = f i in
    let r = ref (if v < 0 then v else -v) and k = ref 19 in
    Bytes.unsafe_set buf 19 (digit !r);
    while !r <= -10 do
      r := !r / 10;
      decr k;
      Bytes.unsafe_set buf !k (digit !r)
    done;
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

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Bernoulli trial with success probability [p]. *)
let bernoulli t ~p = float t < p

(** Exponential variate with the given [rate]. *)
let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  -.log1p (-.float t) /. rate

(** Geometric variate: number of failures before first success. *)
let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p in (0,1]";
  if p >= 1.0 then 0
  else int_of_float (floor (log1p (-.float t) /. log1p (-.p)))

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

(** In-place Fisher-Yates shuffle. *)
let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a =
  let b = Array.copy a in
  shuffle_in_place t b;
  b

(** Sample [count] distinct elements from [\[0, bound)]. *)
let sample_distinct t ~bound ~count =
  if count > bound then invalid_arg "Prng.sample_distinct: count > bound";
  if 3 * count >= bound then begin
    let all = Array.init bound (fun i -> i) in
    shuffle_in_place t all;
    Array.sub all 0 count
  end
  else begin
    let seen = Hashtbl.create (2 * count) in
    let out = Array.make count 0 in
    let filled = ref 0 in
    while !filled < count do
      let v = int t bound in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
