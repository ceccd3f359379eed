(** First-touch interner (see the .mli for the contract).

    The key -> rank index is an open-addressing table: linear probing
    over a power-of-two slot array at a maximum load of 1/2, the empty
    slot marked with the reserved key [min_int], so the whole table is
    two flat [int array]s with no boxing and no allocation on
    {!intern}/{!find} between doublings.  Nothing is ever removed, so
    the table needs no deletion. *)

type t = {
  mutable slots : int array;  (** table slot -> key, [empty] if free *)
  mutable slot_ranks : int array;  (** table slot -> its key's rank *)
  mutable mask : int;  (** table capacity - 1; capacity a power of two *)
  mutable shift : int;  (** 63 - log2 table capacity *)
  mutable keys : int array;  (** rank -> key; the first [length] are live *)
  mutable length : int;
}

let empty = min_int

(* Fibonacci multiplicative hashing: the multiplier is the odd integer
   nearest 2^63 / phi, and the slot is the top log2(capacity) bits of
   the 63-bit product.  Bit j of the product depends on key bits 0..j,
   so only the top bits read every key bit: a packed page keeps its
   user at bit 38 and up, and a slot taken from the low product bits
   files every tenant's copy of a page id under one home slot.  [lsr]
   treats the overflowing product as unsigned, making negative keys
   harmless. *)
let[@inline] home shift key = (key * 0x4F1B_BCDC_BFA5_3E0B) lsr shift

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let rec log2 c = if c <= 1 then 0 else 1 + log2 (c / 2)

(* At a load below 1/2, [capacity] keys fit without a rehash once the
   table has more than [2 * capacity] slots.  Past a quarter of the
   largest array that power of two no longer exists, and [pow2] would
   double beyond [max_int] to 0 and never return. *)
let create ~capacity =
  if capacity >= (Sys.max_array_length + 1) / 4 then
    invalid_arg "Interner.create: capacity exceeds the largest array";
  let capacity = Stdlib.max 1 capacity in
  let slots = pow2 ((2 * capacity) + 1) 8 in
  {
    slots = Array.make slots empty;
    slot_ranks = Array.make slots 0;
    mask = slots - 1;
    shift = 63 - log2 slots;
    keys = Array.make capacity 0;
    length = 0;
  }

let length t = t.length

let check_key key =
  if key = empty then invalid_arg "Interner: key min_int is reserved"

(* First slot holding [key], or the first empty slot of its probe run. *)
let[@inline] probe t key =
  let mask = t.mask in
  let slots = t.slots in
  let i = ref (home t.shift key) in
  while
    let k = Array.unsafe_get slots !i in
    k <> key && k <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let find t key =
  check_key key;
  let i = probe t key in
  if t.slots.(i) = key then t.slot_ranks.(i) else -1
  [@@effects.no_alloc] [@@effects.deterministic]

(* Amortised-doubling growth of the table and of the rank -> key array:
   the allocation sites after [create], forgiven to callers under
   [@@effects.amortized_alloc]. *)
let[@effects.amortized_alloc] grow_table t =
  let old_slots = t.slots and old_ranks = t.slot_ranks in
  let cap = 2 * Array.length old_slots in
  t.slots <- Array.make cap empty;
  t.slot_ranks <- Array.make cap 0;
  t.mask <- cap - 1;
  t.shift <- t.shift - 1;
  for i = 0 to Array.length old_slots - 1 do
    let k = old_slots.(i) in
    if k <> empty then begin
      let j = probe t k in
      t.slots.(j) <- k;
      t.slot_ranks.(j) <- old_ranks.(i)
    end
  done

let[@effects.amortized_alloc] grow_keys t =
  let n = Array.length t.keys in
  let bigger = Array.make (2 * n) 0 in
  Array.blit t.keys 0 bigger 0 n;
  t.keys <- bigger

let intern t key =
  check_key key;
  let i = probe t key in
  if t.slots.(i) = key then t.slot_ranks.(i)
  else begin
    let r = t.length in
    if r = Array.length t.keys then grow_keys t;
    t.keys.(r) <- key;
    t.slots.(i) <- key;
    t.slot_ranks.(i) <- r;
    t.length <- r + 1;
    (* max load factor 1/2: probe runs stay short in the worst case *)
    if 2 * t.length > t.mask then grow_table t;
    r
  end
  [@@effects.no_alloc] [@@effects.deterministic]

let key t rank =
  if rank < 0 || rank >= t.length then invalid_arg "Interner.key: unknown rank";
  t.keys.(rank)

(* Mean distance from a live key's home slot to the slot holding it:
   the extra probe steps a lookup of a present key takes. *)
let mean_displacement t =
  let total = ref 0 in
  for i = 0 to Array.length t.slots - 1 do
    let k = t.slots.(i) in
    if k <> empty then total := !total + ((i - home t.shift k) land t.mask)
  done;
  if t.length = 0 then 0. else float_of_int !total /. float_of_int t.length
