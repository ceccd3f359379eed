(** Binary min-heap over the integer keys [\[0, n)] with float
    priorities and O(log n) arbitrary update/removal via a key->slot
    array.

    Structure-of-arrays layout: heap slot [i] is the triple
    [(keys.(i), ties.(i), prios.(i))] with the priorities in a
    [floatarray], so sift operations move three scalars through flat
    arrays — no boxed entry records, no float boxing.  Every caller
    works in a dense key space, so the key->slot index is a plain
    [n]-entry array: a sift writes one index entry per level, and a
    lookup is one read.

    No operation allocates once the slot arrays are at capacity (growth
    is amortised doubling, capped at [n]).

    Used by the fast ALG-DISCRETE implementation (per-user budget heaps
    and the cross-user minimum structure) and by priority-based eviction
    policies (Landlord, LFU, LRU-K, Belady, Convex-Belady).

    Ties are broken by the smaller tie value (the key, or [ties.(key)]
    when [create] was given [~ties]), making every operation fully
    deterministic regardless of insertion order history. *)

type t = {
  mutable keys : int array; (* heap slots [0, size) are live *)
  mutable ties : int array; (* heap slot -> its key's tie value *)
  mutable prios : floatarray;
  mutable size : int;
  pos : int array; (* key -> its heap slot, or -1 when absent *)
  tie_of : int array option; (* key -> tie value; the key itself if None *)
}

let create ?ties ~n () =
  if n < 0 then invalid_arg "Indexed_heap.create: n must be >= 0";
  (match ties with
  | Some a when Array.length a < n ->
      invalid_arg "Indexed_heap.create: ties must cover [0, n)"
  | _ -> ());
  let cap = Stdlib.min n 16 in
  {
    keys = Array.make cap 0;
    ties = Array.make cap 0;
    prios = Float.Array.make cap nan;
    size = 0;
    pos = Array.make n (-1);
    tie_of = ties;
  }

let length t = t.size
let is_empty t = t.size = 0

let[@inline] check_key t key =
  if key < 0 || key >= Array.length t.pos then
    invalid_arg "Indexed_heap: key outside [0, n)"

let mem t key =
  check_key t key;
  Array.unsafe_get t.pos key >= 0
  [@@effects.no_alloc] [@@effects.deterministic]

(* Exact float equality is the tie-break trigger: two priorities are
   tied only when bit-equal, anything else orders strictly — tolerance
   here would make victim choice depend on comparison order. *)
let[@inline] less t i j =
  let pi = Float.Array.unsafe_get t.prios i
  and pj = Float.Array.unsafe_get t.prios j in
  pi < pj
  || (pi = pj [@lint.allow "float-eq"])
     && Array.unsafe_get t.ties i < Array.unsafe_get t.ties j

(* Write the working entry [key, tie, prio] into heap slot [i] and
   point the key's index entry at it. *)
let[@inline] place t i key tie prio =
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.ties i tie;
  Float.Array.unsafe_set t.prios i prio;
  Array.unsafe_set t.pos key i

(* Move the entry in heap slot [src] to slot [dst] (overwriting dst). *)
let[@inline] move t ~src ~dst =
  let key = Array.unsafe_get t.keys src in
  Array.unsafe_set t.keys dst key;
  Array.unsafe_set t.ties dst (Array.unsafe_get t.ties src);
  Float.Array.unsafe_set t.prios dst (Float.Array.unsafe_get t.prios src);
  Array.unsafe_set t.pos key dst

(* Sift the entry of slot [i] up/down to its heap position.  Both walk
   with a single working copy of the entry and write it once at the
   final slot. *)
let sift_up t i =
  let key = t.keys.(i) and tie = t.ties.(i) and prio = Float.Array.get t.prios i in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    (* !i > 0, so the operand is non-negative and [lsr] is plain
       division by two without the sign correction [/] would emit *)
    let parent = (!i - 1) lsr 1 in
    let pp = Float.Array.unsafe_get t.prios parent in
    if prio < pp || (prio = pp && tie < Array.unsafe_get t.ties parent) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  place t !i key tie prio

let sift_down t i =
  let key = t.keys.(i) and tie = t.ties.(i) and prio = Float.Array.get t.prios i in
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
           && Array.unsafe_get t.ties r < Array.unsafe_get t.ties l
      in
      let smallest = if right then r else l in
      let sp = if right then Float.Array.unsafe_get t.prios r else pl in
      if sp < prio || (sp = prio && Array.unsafe_get t.ties smallest < tie)
      then begin
        move t ~src:smallest ~dst:!i;
        i := smallest
      end
      else continue := false
    end
  done;
  place t !i key tie prio

(* Amortised-doubling growth: the one allocation site of the steady
   state, forgiven to callers under [@@effects.amortized_alloc] (the
   contract the Gc byte-budget test measures dynamically).  Only called
   with fewer than [n] entries live, so the new capacity exceeds the
   old. *)
let[@effects.amortized_alloc] heap_grow t =
  let cap = Stdlib.min (Array.length t.pos) (2 * Array.length t.keys) in
  let keys = Array.make cap 0 in
  Array.blit t.keys 0 keys 0 t.size;
  t.keys <- keys;
  let ties = Array.make cap 0 in
  Array.blit t.ties 0 ties 0 t.size;
  t.ties <- ties;
  let prios = Float.Array.make cap nan in
  Float.Array.blit t.prios 0 prios 0 t.size;
  t.prios <- prios

(** Insert a fresh key. Raises if the key is already present. *)
let add t ~key ~prio =
  check_key t key;
  if Array.unsafe_get t.pos key >= 0 then
    invalid_arg "Indexed_heap.add: duplicate key";
  if t.size = Array.length t.keys then heap_grow t;
  let tie = match t.tie_of with None -> key | Some ties -> Array.unsafe_get ties key in
  let i = t.size in
  t.size <- i + 1;
  place t i key tie prio;
  sift_up t i
  [@@effects.no_alloc] [@@effects.deterministic]

let[@inline] find_slot t key =
  check_key t key;
  match Array.unsafe_get t.pos key with -1 -> raise Not_found | i -> i

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

let remove_slot t i =
  let last = t.size - 1 in
  Array.unsafe_set t.pos (Array.unsafe_get t.keys i) (-1);
  t.size <- last;
  if i <> last then begin
    move t ~src:last ~dst:i;
    let k = t.keys.(i) in
    sift_down t i;
    (* only if the moved-in entry stayed put can it still violate the
       invariant upward (removal from the middle of the heap) *)
    if t.keys.(i) = k then sift_up t i
  end

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
  check_key t key;
  match Array.unsafe_get t.pos key with
  | -1 -> add t ~key ~prio
  | i -> reprioritize t i prio
  [@@effects.no_alloc] [@@effects.deterministic]

(** Heap-order and index consistency; used by tests. *)
let invariant_ok t =
  let ok = ref true in
  let live = ref 0 in
  for key = 0 to Array.length t.pos - 1 do
    let i = t.pos.(key) in
    if i >= 0 then begin
      incr live;
      if i >= t.size || t.keys.(i) <> key then ok := false
    end
  done;
  if !live <> t.size then ok := false;
  for i = 1 to t.size - 1 do
    if less t i ((i - 1) / 2) then ok := false
  done;
  for i = 0 to t.size - 1 do
    let key = t.keys.(i) in
    let tie = match t.tie_of with None -> key | Some ties -> ties.(key) in
    if t.ties.(i) <> tie then ok := false
  done;
  !ok
