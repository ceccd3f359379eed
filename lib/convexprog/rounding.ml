(** Feasibility repair: turn a fractional (CP) solution into an
    integral schedule by simulation.

    Replays the program's real requests through {!Ccache_sim.Engine}
    with a cache of size [cache_size]; whenever an eviction is forced,
    the victim is the cached page whose current fractional variable
    x(p, j(p,t)) is largest ("the relaxation most wanted this page
    out"), ties broken to the smaller page.  A flushed program replays
    with the engine's terminal flush, which evicts exactly as the
    program's pinned dummy requests would.  The result is a feasible
    integral solution whose objective upper-bounds the (ICP) optimum —
    used in E8 to sandwich the relaxation gap from above. *)

open Ccache_trace
module Engine = Ccache_sim.Engine
module Policy = Ccache_sim.Policy
module Cf = Ccache_cost.Cost_function

type outcome = {
  misses_per_user : int array;
  evictions_per_user : int array;
  cost_by_misses : float;
  cost_by_evictions : float;
}

(* Evicts the cached page with the largest current x.  The replayed
   trace has one request per variable, in variable order, so the
   request at position [pos] opens variable [pos]: a cached page's
   current variable is the position of its latest request. *)
let max_x ~x =
  Policy.make ~name:"cp-rounding" (fun _ ->
      let latest : int Page.Tbl.t = Page.Tbl.create 64 in
      let touch ~pos page = Page.Tbl.replace latest page pos in
      {
        Policy.on_hit = touch;
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ ->
            let pick q qpos best =
              let f = x.(qpos) in
              match best with
              | Some (bq, bf) when not (f > bf || (f = bf && Page.compare q bq < 0))
                ->
                  best
              | _ -> Some (q, f)
            in
            fst (Option.get (Page.Tbl.fold pick latest None)));
        on_insert = touch;
        on_evict = (fun ~pos:_ page -> Page.Tbl.remove latest page);
      })

let round (cp : Formulation.t) ~x =
  if Array.length x <> Formulation.n_vars cp then
    invalid_arg "Rounding.round: dimension mismatch";
  let real = cp.Formulation.real_users and costs = cp.Formulation.costs in
  let requests =
    Trace.of_pages ~n_users:real
      (Array.map (fun v -> v.Formulation.page) cp.Formulation.vars)
  in
  let r =
    Engine.replay
      ~flush:(Trace.n_users cp.Formulation.trace > real)
      ~k:cp.Formulation.cache_size ~costs (max_x ~x) requests
  in
  {
    misses_per_user = r.Engine.misses_per_user;
    evictions_per_user = r.Engine.evictions_per_user;
    cost_by_misses = Cf.total costs r.Engine.misses_per_user;
    cost_by_evictions = Cf.total costs r.Engine.evictions_per_user;
  }
