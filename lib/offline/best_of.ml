(** Best-of offline suite: the tightest computable upper bound on the
    offline optimum's cost.

    Runs every offline comparator (Belady, convex-Belady, optional
    local search, and exact DP when the instance is small enough) and
    returns the cheapest schedule's per-user miss counts.  Since every
    comparator produces a *feasible* offline schedule, the winner's
    counts are a sound stand-in for b_i(sigma) in the theorem checks
    (see DESIGN.md "OPT bracketing"): the theorems' right-hand sides
    are monotone in b, so checking against the winner is implied by the
    theorem, while reporting ratios against both this and the dual
    lower bound brackets the true competitive ratio. *)

module Engine = Ccache_sim.Engine
module Metrics = Ccache_sim.Metrics
open Ccache_trace

type outcome = {
  winner : string;
  cost : float;
  misses_per_user : int array;
  all : (string * float) list;  (** every comparator's cost *)
}

(** @param cache_size offline cache size (h in the bi-criteria setting)
    @param local_search_rounds 0 disables local search (default 40)
    @param exact_dp attempt {!Dp_opt} (default: only when the instance
      is clearly tiny: <= 16 distinct pages and T <= 48) *)
let compute ?(local_search_rounds = 40) ?exact_dp ~cache_size ~costs trace =
  let index = Trace.Index.build trace in
  let entries = ref [] in
  let consider name cost misses = entries := (name, cost, misses) :: !entries in
  let run_offline policy =
    let r = Engine.run ~index ~k:cache_size ~costs policy trace in
    consider r.Engine.policy
      (Metrics.total_cost ~costs r)
      r.Engine.misses_per_user
  in
  run_offline Ccache_policies.Belady.policy;
  run_offline Ccache_policies.Convex_belady.policy;
  if local_search_rounds > 0 then begin
    let ls =
      Local_search.improve ~rounds:local_search_rounds ~cache_size ~costs trace
    in
    consider "local-search" ls.Local_search.cost ls.Local_search.misses_per_user
  end;
  let try_dp =
    match exact_dp with
    | Some b -> b
    | None ->
        List.length (Trace.distinct_pages trace) <= 16 && Trace.length trace <= 48
  in
  if try_dp then begin
    match Dp_opt.solve ~cache_size ~costs trace with
    | r -> consider "dp-exact" r.Dp_opt.cost r.Dp_opt.misses_per_user
    | exception Dp_opt.Too_large _ -> ()
  end;
  let entries = !entries in
  let winner, cost, misses =
    List.fold_left
      (fun (bn, bc, bm) (n, c, m) -> if c < bc then (n, c, m) else (bn, bc, bm))
      (match entries with
      | e :: _ -> e
      | [] -> invalid_arg "Best_of.compute: no comparators ran")
      entries
  in
  {
    winner;
    cost;
    misses_per_user = misses;
    all = List.map (fun (n, c, _) -> (n, c)) entries |> List.rev;
  }
