(* Violates [no_alloc]: the array's kind and layout are polymorphic
   here, so the read calls the C accessor, which boxes an [int32]. *)
let first a = Int32.to_int (Bigarray.Array1.get a 0) [@@effects.no_alloc]
