(** Open-addressing int->int hash table (see the .mli for the
    contract).

    Linear probing over a power-of-two slot array with *backward-shift
    deletion*: removing a key re-compacts the probe run that follows it
    instead of leaving a tombstone, so long-lived tables that churn
    (the engine's cache set evicts and inserts on every miss, millions
    of times per trace) never degrade — probe lengths depend only on
    the current load factor, not on the deletion history.

    The empty slot is marked with a reserved key ([min_int]), which is
    what makes the whole table two flat [int array]s with no boxing,
    no per-bucket lists and no allocation on [set]/[remove]/[find]
    after the initial (or amortised doubling) allocation. *)

type t = {
  mutable keys : int array; (* [empty_key] marks a free slot *)
  mutable vals : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable size : int;
}

let empty_key = min_int

(* Fibonacci multiplicative hashing (multiplier ~ 2^63 / phi, odd).
   The product's high bits carry the entropy, so fold them down before
   masking; [lsr] treats the overflowing product as unsigned, making
   negative keys harmless. *)
let slot_of_key mask key =
  let h = key * 0x331B_E495_77F3_1A55 in
  (h lsr 20 lxor h) land mask
  [@@inline]

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create ?(capacity = 16) () =
  (* past the largest power of two an array can hold, [pow2] would
     double beyond [max_int] to 0 and never return *)
  if capacity > (Sys.max_array_length + 1) / 2 then
    invalid_arg "Int_tbl.create: capacity exceeds the largest array";
  let cap = pow2 (Stdlib.max 8 capacity) 8 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    mask = cap - 1;
    size = 0;
  }

let length t = t.size

let check_key key =
  if key = empty_key then invalid_arg "Int_tbl: key min_int is reserved"

(* First slot holding [key], or the first empty slot of its probe run. *)
let probe t key =
  let mask = t.mask in
  let keys = t.keys in
  let i = ref (slot_of_key mask key) in
  while
    let k = Array.unsafe_get keys !i in
    k <> key && k <> empty_key
  do
    i := (!i + 1) land mask
  done;
  !i
  [@@inline]

let mem t key =
  check_key key;
  t.keys.(probe t key) = key
  [@@effects.no_alloc] [@@effects.deterministic]

let find_default t key ~default =
  check_key key;
  let i = probe t key in
  if t.keys.(i) = key then t.vals.(i) else default
  [@@effects.no_alloc] [@@effects.deterministic]

let find_exn t key =
  check_key key;
  let i = probe t key in
  if t.keys.(i) = key then t.vals.(i) else raise Not_found
  [@@effects.no_alloc] [@@effects.deterministic]

(* Amortised-doubling growth: the one allocation site after [create],
   forgiven to callers under [@@effects.amortized_alloc]. *)
let[@effects.amortized_alloc] grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k <> empty_key then begin
      let j = probe t k in
      t.keys.(j) <- k;
      t.vals.(j) <- old_vals.(i)
    end
  done

let set t key value =
  check_key key;
  let i = probe t key in
  if t.keys.(i) = key then t.vals.(i) <- value
  else begin
    t.keys.(i) <- key;
    t.vals.(i) <- value;
    t.size <- t.size + 1;
    (* max load factor 1/2: probe runs stay short in the worst case *)
    if 2 * t.size > t.mask then grow t
  end
  [@@effects.no_alloc] [@@effects.deterministic]

(* Backward-shift deletion: after clearing slot [i], walk the probe run
   that follows and move back every entry whose home slot is outside
   the (cyclic) gap — exactly the entries a future probe would now miss.
   Terminates at the first empty slot (every run is shorter than the
   table because load <= 1/2). *)
let remove t key =
  check_key key;
  let mask = t.mask in
  let i = ref (probe t key) in
  if t.keys.(!i) = key then begin
    t.size <- t.size - 1;
    let j = ref !i in
    let continue = ref true in
    while !continue do
      t.keys.(!i) <- empty_key;
      let last = !i in
      j := !i;
      let scanning = ref true in
      while !scanning do
        j := (!j + 1) land mask;
        let k = t.keys.(!j) in
        if k = empty_key then begin
          scanning := false;
          continue := false
        end
        else begin
          let home = slot_of_key mask k in
          (* can the entry at [j] legally move into the hole at [last]?
             yes iff [last] lies cyclically in [home, j) *)
          let fits =
            if last <= !j then home <= last || home > !j
            else home <= last && home > !j
          in
          if fits then begin
            t.keys.(last) <- k;
            t.vals.(last) <- t.vals.(!j);
            i := !j;
            scanning := false (* re-open the loop with the new hole *)
          end
        end
      done
    done;
    true
  end
  else false
  [@@effects.no_alloc] [@@effects.deterministic]

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    let k = t.keys.(i) in
    if k <> empty_key then f k t.vals.(i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  t.size <- 0

(* Every live key probes back to itself and the size matches; used by
   the model tests. *)
let invariant_ok t =
  let count = ref 0 in
  let ok = ref true in
  for i = 0 to Array.length t.keys - 1 do
    let k = t.keys.(i) in
    if k <> empty_key then begin
      incr count;
      if probe t k <> i then ok := false
    end
  done;
  !ok && !count = t.size
