(* A read at a concrete kind and layout is a 32-bit load, and
   [Int32.to_int] of it allocates nothing. *)
let first (a : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  Int32.to_int (Bigarray.Array1.get a 0)
  [@@effects.no_alloc]
