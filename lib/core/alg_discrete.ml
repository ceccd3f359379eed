(** ALG-DISCRETE (paper Figure 3) as an engine policy — the paper's
    primary contribution.

    Reference implementation: O(k) per eviction via a budget sweep.
    For the O(log k) variant see {!Alg_fast}; equivalence of the two is
    property-tested.

    The [~bump] and [~subtract] switches disable individual update
    rules for the ablation experiments (E9 in DESIGN.md):

    - [~bump:false] drops the same-owner marginal increase, severing
      the coupling between a user's pages;
    - [~subtract:false] drops the uniform budget decay, reducing the
      policy to greedy minimum-marginal-cost eviction (no recency
      component at all).

    Both switches default to [true] = the paper's algorithm. *)

module Policy = Ccache_sim.Policy
module Cf = Ccache_cost.Cost_function
open Ccache_trace

type variant = {
  mode : Cf.derivative_mode;
  bump : bool;
  subtract : bool;
}

let default_variant = { mode = Cf.Discrete; bump = true; subtract = true }

let variant_name { mode; bump; subtract } =
  let base = "alg-discrete" in
  let parts =
    (match mode with Cf.Analytic -> [ "analytic" ] | Cf.Discrete -> [])
    @ (if bump then [] else [ "nobump" ])
    @ if subtract then [] else [ "nosubtract" ]
  in
  match parts with [] -> base | _ -> base ^ "[" ^ String.concat "," parts ^ "]"

(* Candidate-set buckets: occupancy at an eviction is bounded by k. *)
let candidate_bounds =
  [| 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0; 65536.0 |]

(* Decision telemetry for one eviction: the candidate set the budget
   sweep scanned, the marginal-cost draw [delta] charged to the
   victim's owner, and whether the same-owner bump rule fired.  Only
   reached when recording is on. *)
let record_evict ~name ~pos ~candidates ~bumped victim delta =
  let module M = Ccache_obs.Metrics in
  M.incr (name ^ "/evictions");
  M.observe (name ^ "/charge") delta;
  M.observe
    (name ^ "/charge/user" ^ string_of_int (Page.user victim))
    delta;
  M.observe ~bounds:candidate_bounds (name ^ "/candidates")
    (float_of_int candidates);
  if bumped then M.incr (name ^ "/owner-bumps");
  Ccache_obs.Span.instant ~cat:"alg"
    ~args:
      [
        ("pos", Ccache_obs.Sink.Int pos);
        ("owner", Ccache_obs.Sink.Int (Page.user victim));
        ("charge", Ccache_obs.Sink.Float delta);
        ("candidates", Ccache_obs.Sink.Int candidates);
      ]
    (name ^ "/evict")

let make_variant variant =
  Policy.make ~name:(variant_name variant) (fun config ->
      let st =
        Budget_state.create ~costs:config.Policy.Config.costs ~mode:variant.mode
          ~n_users:config.Policy.Config.n_users
      in
      {
        Policy.on_hit = (fun ~pos:_ page -> Budget_state.touch st page);
        wants_evict = Policy.never_evict_early;
        choose_victim =
          (fun ~pos:_ ~incoming:_ -> fst (Budget_state.min_budget st));
        on_insert = (fun ~pos:_ page -> Budget_state.touch st page);
        on_evict =
          (fun ~pos victim ->
            let obs = Ccache_obs.Control.enabled () in
            (* candidate set = cached pages at decision time (the
               victim is still in the budget table here) *)
            let candidates = if obs then Budget_state.cached_count st else 0 in
            let delta =
              Budget_state.evict ~bump:variant.bump ~subtract:variant.subtract
                st victim
            in
            if obs then
              record_evict ~name:(variant_name variant) ~pos ~candidates
                ~bumped:variant.bump victim delta);
      })

(** The paper's algorithm with discrete marginals (Section 2.5). *)
let policy = make_variant default_variant

(** The paper's algorithm with analytic derivatives f'. *)
let analytic = make_variant { default_variant with mode = Cf.Analytic }

(** Ablation: no same-owner marginal bump. *)
let no_bump = make_variant { default_variant with bump = false }

(** Ablation: no uniform budget decay (greedy marginal-cost eviction). *)
let no_subtract = make_variant { default_variant with subtract = false }
