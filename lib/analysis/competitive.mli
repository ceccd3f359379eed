(** Competitive-ratio bookkeeping with OPT bracketing (DESIGN.md
    decision 5): no exact OPT is computable at experiment scale, so
    every ratio is an interval.  [ratio_vs_upper] (online / best-of
    offline) lower-bounds the true ratio; [ratio_vs_lower] (online /
    dual bound) upper-bounds it. *)

type bracket = {
  online_cost : float;
  offline_upper : float;  (** best-of offline: >= OPT cost *)
  offline_lower : float option;  (** dual bound: <= OPT cost *)
  ratio_vs_upper : float;
  ratio_vs_lower : float option;
}

val bracket :
  ?offline_lower:float -> online_cost:float -> offline_upper:float -> unit -> bracket

val pp_bracket : Format.formatter -> bracket -> unit
