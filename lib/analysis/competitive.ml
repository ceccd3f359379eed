(** Competitive-ratio bookkeeping with OPT bracketing.

    No exact OPT is computable at experiment scale, so every ratio is
    reported as an interval (DESIGN.md decision 5):

    - [ratio_vs_upper] = online / best-of-offline cost.  Best-of is an
      upper bound on OPT's cost, so this is a *lower* bound on the true
      competitive ratio;
    - [ratio_vs_lower] = online / dual lower bound.  The Lagrangian
      bound under-estimates OPT, so this is an *upper* bound on the
      true ratio.

    true ratio is always inside [ratio_vs_upper, ratio_vs_lower]. *)


type bracket = {
  online_cost : float;
  offline_upper : float;  (** best-of-offline: >= OPT cost *)
  offline_lower : float option;  (** dual bound: <= OPT cost *)
  ratio_vs_upper : float;
  ratio_vs_lower : float option;
}

let safe_div a b = if b > 0.0 then a /. b else infinity

let bracket ?offline_lower ~online_cost ~offline_upper () =
  {
    online_cost;
    offline_upper;
    offline_lower;
    ratio_vs_upper = safe_div online_cost offline_upper;
    ratio_vs_lower = Option.map (fun lb -> safe_div online_cost lb) offline_lower;
  }

let pp_bracket ppf b =
  match b.ratio_vs_lower with
  | Some r -> Fmt.pf ppf "[%.3f, %.3f]" b.ratio_vs_upper r
  | None -> Fmt.pf ppf "[%.3f, ?]" b.ratio_vs_upper
