(** The complete experiment suite, in DESIGN.md order (E1..E15). *)

val all : Experiment.t list
val find : string -> Experiment.t option
val ids : string list
