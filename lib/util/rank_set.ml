(** Sets over dense ranks (see the .mli for the contract). *)

type t = {
  members : int array;  (** position -> rank; the first [size] are live *)
  index : int array;  (** rank -> its position in [members], [-1] if absent *)
  mutable size : int;
}

let create ~ranks =
  if ranks < 0 then invalid_arg "Rank_set.create: ranks must be >= 0";
  { members = Array.make ranks 0; index = Array.make ranks (-1); size = 0 }

let length t = t.size

let mem t r = r >= 0 && r < Array.length t.index && t.index.(r) >= 0
  [@@effects.no_alloc] [@@effects.deterministic]

let add t r =
  if r < 0 || r >= Array.length t.index then invalid_arg "Rank_set.add: rank out of range";
  if t.index.(r) >= 0 then invalid_arg "Rank_set.add: rank already a member";
  let i = t.size in
  t.members.(i) <- r;
  t.index.(r) <- i;
  t.size <- i + 1
  [@@effects.no_alloc] [@@effects.deterministic]

let remove t r =
  if not (mem t r) then invalid_arg "Rank_set.remove: rank not a member";
  let i = t.index.(r) and last = t.size - 1 in
  let moved = t.members.(last) in
  t.members.(i) <- moved;
  t.index.(moved) <- i;
  t.index.(r) <- -1;
  t.size <- last
  [@@effects.no_alloc] [@@effects.deterministic]

let nth t i =
  if i < 0 || i >= t.size then invalid_arg "Rank_set.nth: position out of range";
  t.members.(i)
