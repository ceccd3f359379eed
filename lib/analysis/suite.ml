(** The complete experiment suite, in DESIGN.md order. *)

let all : Experiment.t list =
  [
    Exp_thm11.spec;
    Exp_monomial.spec;
    Exp_bicriteria.spec;
    Exp_lowerbound.spec;
    Exp_sla.spec;
    Exp_linear.spec;
    Exp_invariants.spec;
    Exp_cp_gap.spec;
    Exp_ablations.spec;
    Exp_multipool.spec;
    Exp_certificates.spec;
    Exp_fractional.spec;
    Exp_dbsim.spec;
    Exp_windows.spec;
    Exp_serve.spec;
  ]

let find id = List.find_opt (fun (e : Experiment.t) -> e.Experiment.id = id) all

let ids = List.map (fun (e : Experiment.t) -> e.Experiment.id) all
