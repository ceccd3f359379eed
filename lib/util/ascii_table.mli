(** Plain-text table rendering for experiment reports: aligned boxed
    ASCII and GitHub-flavoured markdown (used when regenerating
    EXPERIMENTS.md sections). *)

type align = Left | Right | Center

type t

val create : ?title:string -> ?aligns:align list -> string list -> t
(** [create header] makes an empty table.  [aligns] defaults to
    all-[Right]. @raise Invalid_argument on aligns/header mismatch. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val rows : t -> string list list
(** Rows in insertion order. *)

val to_string : t -> string
(** Boxed ASCII rendering. *)

val to_markdown : t -> string
(** GitHub-flavoured markdown rendering. *)

val print : t -> unit
(** [to_string] to stdout, with a trailing newline. *)

(** Cell formatting helpers shared across reports. *)

val cell_int : int -> string
val cell_float : ?digits:int -> float -> string
val cell_pct : float -> string
(** Fraction rendered as a percentage, e.g. [0.5 -> "50.0%"]. *)

val cell_ratio : float -> string
(** Three-decimal fixed rendering. *)
