(* Violates [no_alloc] one call away, through a same-file submodule:
   [Sub.pair] is a node of its own, and only resolving [Sub] to this
   file's submodule connects the toplevel caller to its allocation. *)
module Sub = struct
  let pair x = (x, x)
end

let twice x = Sub.pair x [@@effects.no_alloc]
