(* Fixture: domain-capture — one violation, one suppressed.
   Only parsed, never compiled, so the free identifiers are fine. *)

let total = ref 0

let bad pool xs =
  Domain_pool.map_list ~pool ~f:(fun x -> total := !total + x) xs

let ok pool xs =
  Domain_pool.map_list ~pool
    ~f:(fun x -> (total := !total + x [@lint.allow "domain-capture"]))
    xs
