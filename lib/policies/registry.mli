(** Catalogue of baseline policies, used by the CLI and experiments. *)

val online : Ccache_sim.Policy.t list
(** Online baselines (cost-blind, or cost-aware without the paper's
    coupling). *)

val offline : Ccache_sim.Policy.t list
(** Offline references (require the full trace). *)

val all : Ccache_sim.Policy.t list
