(* Helpers shared by the test executables of this directory. *)

(* [allocation f] runs [f] and returns its result with the bytes it
   allocated on the OCaml heap.  The window opens after a full major
   collection, so collection work left over from earlier tests is not
   charged to [f].  Bigarray data (a trace's dense ids) lives outside
   the heap and is not counted. *)
let allocation f =
  Gc.full_major ();
  let b0 = Gc.allocated_bytes () in
  let v = f () in
  let b1 = Gc.allocated_bytes () in
  (Sys.opaque_identity v, b1 -. b0)

(* A trace's dense ids from an int array and back.  A value is stored
   in 32 bits, so -1 becomes 2^32 - 1, the largest u32 id. *)
let ids_of_array a =
  let ids = Ccache_trace.Trace.create_ids (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.set ids i (Int32.of_int v)) a;
  ids

let ints_of_ids (ids : Ccache_trace.Trace.ids) =
  Array.init (Bigarray.Array1.dim ids) (fun i ->
      Int32.to_int (Bigarray.Array1.get ids i) land 0xFFFF_FFFF)
