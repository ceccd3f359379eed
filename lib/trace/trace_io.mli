(** Plain-text trace serialisation.

    Line-oriented format ('#' comments and blank lines allowed):
    {v
    # convex-caching trace v1
    users <n>
    <user> <page>
    ...
    v} *)

exception Parse_error of { line : int; msg : string }
(** Malformed text input; [line] is 1-based (0 for whole-input
    problems such as a missing [users] directive). *)

val to_string : Trace.t -> string
val of_string : string -> Trace.t
(** @raise Parse_error on malformed input. *)

val looks_text : string -> bool
(** Does the input's first line, trimmed, equal {!magic}? *)

val iter_lines : string -> (int -> string -> string list -> unit) -> unit
(** The line reader of every text trace format ({!Trace_extern}'s
    included): [iter_lines s f] calls [f line text tokens], in order,
    for each line of [s] that is neither blank nor a ['#'] comment —
    [line] is its 1-based number, [text] the line trimmed of
    surrounding whitespace, [tokens] its space-separated words. *)

val read_all : string -> string
(** The whole file as a string; ["-"] reads standard input.
    @raise Sys_error if the file cannot be read. *)

val write_channel : out_channel -> Trace.t -> unit
val write_file : string -> Trace.t -> unit
val read_file : string -> Trace.t

val of_string_any : string -> Trace.t
(** Sniff the format: binary [.ctrace] if the {!Trace_binary.magic}
    bytes lead, the text format otherwise.
    @raise Parse_error / @raise Trace_binary.Format_error accordingly. *)

val read_any : string -> Trace.t
(** File counterpart of {!of_string_any}. *)
