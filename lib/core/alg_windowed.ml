(** ALG-DISCRETE with per-window cost resets.

    Under windowed SLAs (see {!Ccache_sim.Windows}) a tenant's marginal
    cost depends on its misses {e within the current window}, not on
    its lifetime total.  This variant applies the paper's algorithm
    window by window: at each window boundary the per-user eviction
    counts reset to zero and every cached budget is re-based to the
    fresh marginal f'(1), i.e. the algorithm restarts its primal-dual
    state against the new window's cost landscape while keeping the
    cache contents.

    With the cumulative objective this variant is strictly worse than
    {!Alg_discrete} (it forgets curvature progress); under the
    windowed objective it tracks the real marginals — E14 measures
    both sides of that trade. *)

module Policy = Ccache_sim.Policy
module Cf = Ccache_cost.Cost_function

let make ~window () =
  if window <= 0 then invalid_arg "Alg_windowed.make: window must be positive";
  Policy.make
    ~name:(Printf.sprintf "alg-discrete[w=%d]" window)
    (fun config ->
      let st =
        Budget_state.create ~costs:config.Policy.Config.costs ~mode:Cf.Discrete
          ~n_users:config.Policy.Config.n_users
      in
      let current_window = ref 0 in
      let roll ~pos =
        let w = pos / window in
        if w > !current_window then begin
          current_window := w;
          (* new window: miss counts restart, so marginals do too *)
          Budget_state.new_window st
        end
      in
      {
        Policy.on_hit =
          (fun ~pos page ->
            roll ~pos;
            Budget_state.touch st page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos ~incoming:_ ->
            roll ~pos;
            fst (Budget_state.min_budget st));
        on_insert =
          (fun ~pos page ->
            roll ~pos;
            Budget_state.touch st page);
        on_evict = (fun ~pos:_ victim -> ignore (Budget_state.evict st victim));
      })
