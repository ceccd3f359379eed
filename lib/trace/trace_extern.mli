(** Readers for external address-trace formats.

    Supported: cachetrace-style [R 0xADDR] / [W 0xADDR] lines (["rw"])
    and valgrind [--tool=lackey --trace-mem=yes] dumps (["lackey"]).
    Addresses become pages via [addr lsr page_shift] (default 12) and
    are interned to first-touch dense ids under a single user 0 — raw
    64-bit page numbers exceed {!Page}'s 38-bit id field, and the
    policies are invariant under this order-preserving renaming.

    Both parsers read lines through {!Trace_io.iter_lines} and raise
    {!Trace_io.Parse_error} with a 1-based line number on malformed
    input. *)

val default_page_shift : int
(** 12 — 4 KiB pages. *)

type format = Rw | Lackey

val format_of_string : string -> format option
(** ["rw"] or ["lackey"]. *)

val of_string_rw : ?page_shift:int -> string -> Trace.t
val of_string_lackey : ?page_shift:int -> string -> Trace.t
val of_string : ?page_shift:int -> format -> string -> Trace.t
