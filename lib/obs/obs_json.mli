(** JSON emission helpers for the exporters (byte-stable by design). *)

val str : string -> string
(** A quoted, escaped JSON string literal. *)

val num : float -> string
(** A JSON number via [%g]; non-finite values become [null]. *)

val micros : float -> string
(** Seconds rendered as fixed-point microseconds ([%.3f]). *)

(** {1 Reading}

    A minimal parser for reading this repo's own artifacts back (bench
    baselines, metric shards) — still no external JSON dependency. *)

type value =
  | Null
  | Bool of bool
  | Number of float  (** all JSON numbers, integral or not *)
  | String of string
  | List of value list
  | Obj of (string * value) list
      (** fields in document order; duplicate keys are kept *)

val parse : string -> (value, string) result
(** Parse one complete JSON document.  [Error] carries a message with a
    byte offset.  Numbers become [float]s; [\u] escapes outside the BMP
    (surrogates) decode to U+FFFD. *)

val member : string -> value -> value option
(** Field lookup on an [Obj] (first match); [None] on any other
    constructor. *)
