(** Binary min-heap over integer keys with float priorities and
    O(log n) arbitrary update/removal via a key->slot index.

    Structure-of-arrays layout: heap slot [i] is the pair
    [(keys.(i), prios.(i))] with the priorities in a [floatarray], so
    sift operations move two scalars through flat arrays — no boxed
    entry records, no float boxing.  The key->slot index is an
    open-addressing table embedded in this module rather than delegated
    to {!Int_tbl}: a sift touches the index once per level, and without
    flambda a cross-module call per level costs more than the probe
    itself.  The algorithm (linear probing, power-of-two capacity,
    backward-shift deletion, max load 1/2) is Int_tbl's; keep the two
    in sync.

    No operation allocates once the arrays are at capacity (growth is
    amortised doubling).  The key [min_int] is reserved as the index's
    empty marker and rejected with [Invalid_argument].

    Used by the fast ALG-DISCRETE implementation (per-user budget heaps
    and the cross-user minimum structure) and by priority-based eviction
    policies (Landlord, Convex-Belady).

    Ties are broken by the smaller key, making every operation fully
    deterministic regardless of insertion order history. *)

type t = {
  mutable keys : int array; (* heap slots [0, size) are live *)
  mutable prios : floatarray;
  mutable size : int;
  (* key -> heap-slot index: open addressing, [empty] marks free *)
  mutable tkeys : int array;
  mutable tvals : int array;
  mutable tmask : int; (* table capacity - 1; capacity a power of two *)
  mutable tpos : int array;
      (* heap slot -> index of its key in [tkeys]: lets a sift move an
         entry and re-point its table binding without re-probing *)
}

let empty = min_int

let[@inline] check_key key =
  if key = empty then invalid_arg "Indexed_heap: key min_int is reserved"

(* Fibonacci multiplicative hash folded down; see Int_tbl. *)
let[@inline] home mask key =
  let h = key * 0x331B_E495_77F3_1A55 in
  (h lsr 20 lxor h) land mask

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create ?(capacity = 16) () =
  let cap = Stdlib.max capacity 1 in
  let tcap = pow2 (Stdlib.max 8 (2 * cap)) 8 in
  {
    keys = Array.make cap empty;
    prios = Float.Array.make cap nan;
    size = 0;
    tkeys = Array.make tcap empty;
    tvals = Array.make tcap 0;
    tmask = tcap - 1;
    tpos = Array.make cap 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* First table slot holding [key], or the first empty slot of its
   probe run. *)
let[@inline] probe t key =
  let mask = t.tmask in
  let tkeys = t.tkeys in
  let i = ref (home mask key) in
  while
    let k = Array.unsafe_get tkeys !i in
    k <> key && k <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let mem t key =
  check_key key;
  t.tkeys.(probe t key) = key
  [@@effects.no_alloc] [@@effects.deterministic]

(* Heap slot of [key], or -1. *)
let[@inline] slot_of t key =
  let i = probe t key in
  if Array.unsafe_get t.tkeys i = key then Array.unsafe_get t.tvals i else -1

(* Amortised-doubling growth: the one allocation site of the steady
   state, forgiven to callers under [@@effects.amortized_alloc] (the
   contract the Gc byte-budget test measures dynamically). *)
let[@effects.amortized_alloc] tbl_grow t =
  let old_keys = t.tkeys and old_vals = t.tvals in
  let cap = 2 * Array.length old_keys in
  t.tkeys <- Array.make cap empty;
  t.tvals <- Array.make cap 0;
  t.tmask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k <> empty then begin
      let j = probe t k in
      let v = old_vals.(i) in
      t.tkeys.(j) <- k;
      t.tvals.(j) <- v;
      t.tpos.(v) <- j
    end
  done

(* Backward-shift deletion starting from the known table index [i] of
   a live key; see Int_tbl for the interval argument.  Shifted entries
   re-point their [tpos] back-link. *)
let tbl_remove_at t i =
  let mask = t.tmask in
  let i = ref i in
  begin
    let continue = ref true in
    while !continue do
      Array.unsafe_set t.tkeys !i empty;
      let last = !i in
      let j = ref !i in
      let scanning = ref true in
      while !scanning do
        j := (!j + 1) land mask;
        let k = Array.unsafe_get t.tkeys !j in
        if k = empty then begin
          scanning := false;
          continue := false
        end
        else begin
          let h = home mask k in
          let fits =
            if last <= !j then h <= last || h > !j
            else h <= last && h > !j
          in
          if fits then begin
            let v = Array.unsafe_get t.tvals !j in
            Array.unsafe_set t.tkeys last k;
            Array.unsafe_set t.tvals last v;
            Array.unsafe_set t.tpos v last;
            i := !j;
            scanning := false
          end
        end
      done
    done
  end

(* Exact float equality is the tie-break trigger: two priorities are
   tied only when bit-equal, anything else orders strictly — tolerance
   here would make victim choice depend on comparison order. *)
let[@inline] less t i j =
  let pi = Float.Array.unsafe_get t.prios i
  and pj = Float.Array.unsafe_get t.prios j in
  pi < pj
  || (pi = pj [@lint.allow "float-eq"])
     && Array.unsafe_get t.keys i < Array.unsafe_get t.keys j

(* Write the working entry [key, prio] (whose key sits at table index
   [ti]) into heap slot [i] and re-point the binding — no probe. *)
let[@inline] place t i key prio ti =
  Array.unsafe_set t.keys i key;
  Float.Array.unsafe_set t.prios i prio;
  Array.unsafe_set t.tpos i ti;
  Array.unsafe_set t.tvals ti i

(* Move the entry in heap slot [src] to slot [dst] (overwriting dst). *)
let[@inline] move t ~src ~dst =
  Array.unsafe_set t.keys dst (Array.unsafe_get t.keys src);
  Float.Array.unsafe_set t.prios dst (Float.Array.unsafe_get t.prios src);
  let ti = Array.unsafe_get t.tpos src in
  Array.unsafe_set t.tpos dst ti;
  Array.unsafe_set t.tvals ti dst

(* Sift the entry of slot [i] up/down to its heap position.  Both walk
   with a single working copy of the entry and write it once at the
   final slot; [move]'s back-link keeps the index current, so a sift
   never touches the hash probe sequence at all. *)
let sift_up t i =
  let key = t.keys.(i) and prio = Float.Array.get t.prios i in
  let ti = t.tpos.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    (* !i > 0, so the operand is non-negative and [lsr] is plain
       division by two without the sign correction [/] would emit *)
    let parent = (!i - 1) lsr 1 in
    let pp = Float.Array.unsafe_get t.prios parent in
    if prio < pp || (prio = pp && key < Array.unsafe_get t.keys parent) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  place t !i key prio ti

let sift_down t i =
  let key = t.keys.(i) and prio = Float.Array.get t.prios i in
  let ti = t.tpos.(i) in
  let size = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (!i lsl 1) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      (* pick the smaller child reading each priority once; the floats
         stay unboxed in registers across the two comparisons *)
      let pl = Float.Array.unsafe_get t.prios l in
      let right =
        r < size
        &&
        let pr = Float.Array.unsafe_get t.prios r in
        pr < pl
        || (pr = pl [@lint.allow "float-eq"])
           && Array.unsafe_get t.keys r < Array.unsafe_get t.keys l
      in
      let smallest = if right then r else l in
      let sp = if right then Float.Array.unsafe_get t.prios r else pl in
      if sp < prio || (sp = prio && Array.unsafe_get t.keys smallest < key)
      then begin
        move t ~src:smallest ~dst:!i;
        i := smallest
      end
      else continue := false
    end
  done;
  place t !i key prio ti

let[@effects.amortized_alloc] heap_grow t =
  let cap = Array.length t.keys in
  let keys = Array.make (2 * cap) empty in
  Array.blit t.keys 0 keys 0 t.size;
  t.keys <- keys;
  let prios = Float.Array.make (2 * cap) nan in
  Float.Array.blit t.prios 0 prios 0 t.size;
  t.prios <- prios;
  let tpos = Array.make (2 * cap) 0 in
  Array.blit t.tpos 0 tpos 0 t.size;
  t.tpos <- tpos

(** Insert a fresh key. Raises if the key is already present. *)
let add t ~key ~prio =
  check_key key;
  let ti0 = probe t key in
  if t.tkeys.(ti0) = key then invalid_arg "Indexed_heap.add: duplicate key";
  if t.size = Array.length t.keys then heap_grow t;
  (* only a table grow moves slots around; otherwise the duplicate
     check above already found the insertion point *)
  let ti =
    if 2 * (t.size + 1) > t.tmask then begin
      tbl_grow t;
      probe t key
    end
    else ti0
  in
  t.tkeys.(ti) <- key;
  let i = t.size in
  t.size <- i + 1;
  Array.unsafe_set t.keys i key;
  Float.Array.unsafe_set t.prios i prio;
  t.tpos.(i) <- ti;
  t.tvals.(ti) <- i;
  sift_up t i
  [@@effects.no_alloc] [@@effects.deterministic]

let[@inline] find_slot t key =
  check_key key;
  match slot_of t key with -1 -> raise Not_found | i -> i

(** Current priority of [key]. Raises [Not_found] if absent. *)
let priority t key = Float.Array.get t.prios (find_slot t key)
  [@@effects.no_alloc] [@@effects.deterministic]

(** Minimum key / priority without removing it; allocation-free, for
    the eviction hot path. *)
let min_key_exn t =
  if t.size = 0 then invalid_arg "Indexed_heap.min_key_exn: empty heap";
  Array.unsafe_get t.keys 0
  [@@effects.no_alloc] [@@effects.deterministic]

let min_prio_exn t =
  if t.size = 0 then invalid_arg "Indexed_heap.min_prio_exn: empty heap";
  Float.Array.unsafe_get t.prios 0
  [@@effects.no_alloc] [@@effects.deterministic]

(** Minimum entry without removing it. *)
let peek t =
  if t.size = 0 then None else Some (t.keys.(0), Float.Array.get t.prios 0)

let peek_exn t =
  match peek t with
  | Some kp -> kp
  | None -> invalid_arg "Indexed_heap.peek_exn: empty heap"

let remove_slot t i =
  let last = t.size - 1 in
  tbl_remove_at t t.tpos.(i);
  t.size <- last;
  if i <> last then begin
    move t ~src:last ~dst:i;
    Array.unsafe_set t.keys last empty;
    let k = t.keys.(i) in
    sift_down t i;
    (* only if the moved-in entry stayed put can it still violate the
       invariant upward (removal from the middle of the heap) *)
    if t.keys.(i) = k then sift_up t i
  end
  else Array.unsafe_set t.keys last empty

(** Remove and return the minimum. *)
let pop t =
  if t.size = 0 then None
  else begin
    let k = t.keys.(0) and p = Float.Array.get t.prios 0 in
    remove_slot t 0;
    Some (k, p)
  end

(** Remove an arbitrary key. Raises [Not_found] if absent. *)
let remove t key = remove_slot t (find_slot t key)
  [@@effects.no_alloc] [@@effects.deterministic]

(* Directional re-prioritisation: a raised priority can only need to
   move down, a lowered one only up, an unchanged one (the common case
   on cache hits: budgets only move when an eviction changes an offset)
   nowhere.  [Float.compare] gives the total order, so a NaN old value
   still sifts instead of sticking. *)
let[@inline] reprioritize t i prio =
  let c = Float.compare prio (Float.Array.get t.prios i) in
  if c > 0 then begin
    Float.Array.set t.prios i prio;
    sift_down t i
  end
  else if c < 0 then begin
    Float.Array.set t.prios i prio;
    sift_up t i
  end

(** Set the priority of an existing key (increase or decrease). *)
let update t ~key ~prio = reprioritize t (find_slot t key) prio
  [@@effects.no_alloc] [@@effects.deterministic]

(** Insert or update. *)
let set t ~key ~prio =
  check_key key;
  match slot_of t key with
  | -1 -> add t ~key ~prio
  | i -> reprioritize t i prio
  [@@effects.no_alloc] [@@effects.deterministic]

(** Heap-order and index consistency; used by tests. *)
let invariant_ok t =
  let tlen = ref 0 in
  let ok = ref true in
  for i = 0 to Array.length t.tkeys - 1 do
    let k = t.tkeys.(i) in
    if k <> empty then begin
      incr tlen;
      if probe t k <> i then ok := false
    end
  done;
  if !tlen <> t.size then ok := false;
  for i = 1 to t.size - 1 do
    if less t i ((i - 1) / 2) then ok := false
  done;
  for i = 0 to t.size - 1 do
    if slot_of t t.keys.(i) <> i then ok := false;
    if t.tkeys.(t.tpos.(i)) <> t.keys.(i) then ok := false
  done;
  !ok
