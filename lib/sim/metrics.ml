(** Cost evaluation and result presentation.

    Translates the raw per-user miss counts of an {!Engine.result} into
    the paper's objective [sum_i f_i(misses_i)]. *)

(** Total objective [sum_i f_i(misses_i)]. *)
let total_cost ~costs (r : Engine.result) =
  if Array.length costs <> r.Engine.n_users then
    invalid_arg "Metrics.total_cost: costs/users mismatch";
  Ccache_cost.Cost_function.total costs r.Engine.misses_per_user

type row = {
  policy : string;
  hits : int;
  misses : int;
  miss_ratio : float;
  cost : float;
}

let row ~costs (r : Engine.result) =
  {
    policy = r.Engine.policy;
    hits = r.Engine.hits;
    misses = Engine.misses r;
    miss_ratio = Engine.miss_ratio r;
    cost = total_cost ~costs r;
  }

(** Comparison table over several results on the same trace, sorted by
    ascending cost. *)
let comparison_table ?(title = "policy comparison") ~costs results =
  let sorted =
    List.sort
      (fun a b -> Float.compare a.cost b.cost)
      (List.map (row ~costs) results)
  in
  let open Ccache_util.Ascii_table in
  let tbl =
    create ~title
      ~aligns:[ Left; Right; Right; Right; Right ]
      [ "policy"; "hits"; "misses"; "miss%"; "cost" ]
  in
  List.iter
    (fun r ->
      add_row tbl
        [
          r.policy;
          cell_int r.hits;
          cell_int r.misses;
          cell_pct r.miss_ratio;
          cell_float ~digits:6 r.cost;
        ])
    sorted;
  tbl

let pp_result ~costs ppf (r : Engine.result) =
  Fmt.pf ppf "@[<v>%s (k=%d): hits=%d misses=%d cost=%.6g" r.Engine.policy
    r.Engine.k r.Engine.hits (Engine.misses r) (total_cost ~costs r);
  Array.iteri
    (fun u m ->
      Fmt.pf ppf "@,  user %d: misses=%d evictions=%d cost=%.6g" u m
        r.Engine.evictions_per_user.(u)
        (Ccache_cost.Cost_function.eval costs.(u) (float_of_int m)))
    r.Engine.misses_per_user;
  Fmt.pf ppf "@]"
