(** First-touch interner (see the .mli for the contract). *)

type t = {
  ranks : Int_tbl.t;  (** key -> rank *)
  mutable keys : int array;  (** rank -> key; the first [length] slots are live *)
}

(* Int_tbl keeps its load below 1/2, so [capacity] keys fit without a
   rehash once it has more than [2 * capacity] slots. *)
let create ~capacity =
  let capacity = Stdlib.max 1 capacity in
  {
    ranks = Int_tbl.create ~capacity:((2 * capacity) + 1) ();
    keys = Array.make capacity 0;
  }

let length t = Int_tbl.length t.ranks

let find t key = Int_tbl.find_default t.ranks key ~default:(-1)
  [@@effects.no_alloc] [@@effects.deterministic]

(* Amortised-doubling growth of the rank -> key array, forgiven to
   callers under [@@effects.amortized_alloc] as in [Int_tbl]. *)
let[@effects.amortized_alloc] grow t =
  let n = Array.length t.keys in
  let bigger = Array.make (2 * n) 0 in
  Array.blit t.keys 0 bigger 0 n;
  t.keys <- bigger

let intern t key =
  let r = Int_tbl.find_default t.ranks key ~default:(-1) in
  if r >= 0 then r
  else begin
    let r = Int_tbl.length t.ranks in
    if r = Array.length t.keys then grow t;
    t.keys.(r) <- key;
    Int_tbl.set t.ranks key r;
    r
  end
  [@@effects.no_alloc] [@@effects.deterministic]

let key t rank =
  if rank < 0 || rank >= length t then invalid_arg "Interner.key: unknown rank";
  t.keys.(rank)
