(** Pages and their owning users, packed into a single tagged int.

    Every page belongs to exactly one user (the paper's [P_i] partition).
    User ids are dense integers [0 .. n-1]; page ids are arbitrary
    non-negative integers, unique within a user.

    Representation: [(user lsl 38) lor id] — user in the high 24 bits,
    id in the low 38, 62 bits total, so every page is a non-negative
    immediate OCaml int (no allocation, no indirection; [Page.Tbl] keys
    hash without touching the heap, and the engine's cache set can key
    on the packed value directly).  The split allows 16.7M users and
    274G pages per user; {!make} bounds-checks both.  Because both
    fields are non-negative and user occupies the high bits,
    [Int.compare] on packed values IS the (user, id) lexicographic
    order the algorithms' deterministic tie-breaks rely on. *)

type t = int

let id_bits = 38
let max_id = (1 lsl id_bits) - 1 (* 2^38 - 1 *)
let max_user = (1 lsl 24) - 1 (* 2^24 - 1 *)

(* The packed form needs 62 value bits; OCaml ints have 63 on every
   64-bit platform.  Fail loudly rather than corrupt pages on a 32-bit
   host. *)
let () =
  if Sys.int_size < 63 then
    failwith "Page: packed representation requires a 64-bit platform"

let make ~user ~id =
  if user < 0 then invalid_arg "Page.make: negative user";
  if id < 0 then invalid_arg "Page.make: negative id";
  if user > max_user then invalid_arg "Page.make: user exceeds 2^24 - 1";
  if id > max_id then invalid_arg "Page.make: id exceeds 2^38 - 1";
  (user lsl id_bits) lor id
  [@@effects.pure] [@@effects.no_alloc]

let user t = t lsr id_bits [@@effects.pure] [@@effects.no_alloc]
let id t = t land max_id [@@effects.pure] [@@effects.no_alloc]

let pack t = t [@@effects.pure] [@@effects.no_alloc]

let unpack i =
  if i < 0 || i lsr id_bits > max_user then
    invalid_arg "Page.unpack: not a packed page";
  i
  [@@effects.pure] [@@effects.no_alloc]

let compare (a : t) (b : t) = Int.compare a b
  [@@effects.pure] [@@effects.no_alloc]

let equal (a : t) (b : t) = a = b [@@effects.pure] [@@effects.no_alloc]

(* Same value the unpacked-record representation hashed to, so every
   [Page.Tbl] keeps its historical bucket layout (and with it the
   iteration order golden outputs were recorded under). *)
let hash t = (user t * 0x9E3779B1) lxor id t

let to_string t = Printf.sprintf "u%d:p%d" (user t) (id t)

(** Parse the [uU:pI] form produced by {!to_string}. *)
let of_string s =
  match String.split_on_char ':' s with
  | [ u; p ]
    when String.length u > 1 && u.[0] = 'u' && String.length p > 1 && p.[0] = 'p' ->
      (try
         let user = int_of_string (String.sub u 1 (String.length u - 1)) in
         let id = int_of_string (String.sub p 1 (String.length p - 1)) in
         Some (make ~user ~id)
       with Invalid_argument _ | Failure _ -> None)
  | _ -> None

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Tbl = Hashtbl.Make (Key)
module Set = Set.Make (Key)
module Map = Map.Make (Key)
