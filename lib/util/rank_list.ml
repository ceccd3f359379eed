(** Doubly linked lists over dense ranks (see the .mli for the
    contract). *)

type t = {
  owner : int array;  (** rank -> its list, [-1] in none *)
  prev : int array;  (** rank -> previous rank, [-1] at the front *)
  next : int array;  (** rank -> next rank, [-1] at the back *)
  front : int array;  (** list -> first rank, [-1] if empty *)
  back : int array;  (** list -> last rank, [-1] if empty *)
  length : int array;  (** list -> number of ranks *)
}

let create ~ranks ~lists =
  if lists < 1 then invalid_arg "Rank_list.create: lists must be >= 1";
  {
    owner = Array.make ranks (-1);
    prev = Array.make ranks (-1);
    next = Array.make ranks (-1);
    front = Array.make lists (-1);
    back = Array.make lists (-1);
    length = Array.make lists 0;
  }

let length t l = t.length.(l)

let owner t r = if r >= 0 && r < Array.length t.owner then t.owner.(r) else -1
  [@@effects.no_alloc] [@@effects.deterministic]

(* Whether rank [r] may be pushed: it is in range, and in no list. *)
let free t r =
  if r < 0 || r >= Array.length t.owner then invalid_arg "Rank_list: rank out of range";
  t.owner.(r) < 0

let push_front t l r =
  if not (free t r) then invalid_arg "Rank_list.push_front: rank already in a list";
  let f = t.front.(l) in
  t.owner.(r) <- l;
  t.prev.(r) <- -1;
  t.next.(r) <- f;
  if f < 0 then t.back.(l) <- r else t.prev.(f) <- r;
  t.front.(l) <- r;
  t.length.(l) <- t.length.(l) + 1
  [@@effects.no_alloc] [@@effects.deterministic]

let push_back t l r =
  if not (free t r) then invalid_arg "Rank_list.push_back: rank already in a list";
  let b = t.back.(l) in
  t.owner.(r) <- l;
  t.next.(r) <- -1;
  t.prev.(r) <- b;
  if b < 0 then t.front.(l) <- r else t.next.(b) <- r;
  t.back.(l) <- r;
  t.length.(l) <- t.length.(l) + 1
  [@@effects.no_alloc] [@@effects.deterministic]

let remove t r =
  let l = owner t r in
  if l < 0 then invalid_arg "Rank_list.remove: rank in no list";
  let p = t.prev.(r) and n = t.next.(r) in
  if p < 0 then t.front.(l) <- n else t.next.(p) <- n;
  if n < 0 then t.back.(l) <- p else t.prev.(n) <- p;
  t.owner.(r) <- -1;
  t.length.(l) <- t.length.(l) - 1
  [@@effects.no_alloc] [@@effects.deterministic]

let front t l = t.front.(l)
let back t l = t.back.(l)

let to_list t l =
  let rec go r acc = if r < 0 then acc else go t.prev.(r) (r :: acc) in
  go t.back.(l) []

(* Walking each list from its front meets only ranks it owns, each
   linked back to its predecessor (which also rules out cycles), ends
   at its [back] after [length] ranks; and no other rank has an
   owner. *)
let invariant_ok t =
  let list_ok l =
    let rec go prev r n =
      if r < 0 then t.back.(l) = prev && n = t.length.(l)
      else t.owner.(r) = l && t.prev.(r) = prev && go r t.next.(r) (n + 1)
    in
    go (-1) t.front.(l) 0
  in
  let owned = Array.fold_left (fun n o -> if o >= 0 then n + 1 else n) 0 t.owner in
  List.for_all list_ok (List.init (Array.length t.front) Fun.id)
  && owned = Array.fold_left ( + ) 0 t.length
