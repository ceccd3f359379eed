(* The sanctioned shape: tasks compute, the caller combines after the
   map. *)
let go xs =
  List.fold_left ( + ) 0 (Ccache_util.Domain_pool.map_list ~f:(fun x -> x * x) xs)
