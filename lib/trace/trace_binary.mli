(** Zero-copy binary trace format (".ctrace").

    Little-endian, versioned, endian-pinned; see DESIGN.md section 14
    for the byte-level layout.  {!open_file} is O(P) in the number of
    distinct pages — the O(T) request region is mapped with
    [Unix.map_file], shared read-only across domains and processes, and
    iterated without per-request allocation. *)

exception Format_error of { offset : int; msg : string }
(** Raised on malformed input: bad magic, unsupported version, wrong
    endianness tag, size/layout mismatch, or an ill-formed dictionary
    or dense stream.  [offset] is the byte offset of the offending
    field. *)

(** {1 Writing} *)

val write_file : string -> Trace.t -> unit
(** @raise Format_error on a big-endian host, or when the page count
    does not fit the u32 header field. *)

val write_channel : out_channel -> Trace.t -> unit
(** {!write_file}'s encoder on an open channel (e.g. [stdout]); same
    checks. *)

val to_string : Trace.t -> string
(** The same image in memory; same checks. *)

(** {1 Zero-copy handles} *)

type handle
(** An open binary trace: decoded header and page dictionary plus the
    mmapped request region.  The mapping is released when the handle is
    garbage-collected. *)

val open_file : string -> handle
(** Validate the header and dictionary and map the request region.
    O(P); does not scan the T requests.
    @raise Format_error on malformed input or a big-endian host.
    @raise Sys_error if the file cannot be opened. *)

val n_users : handle -> int
val n_pages : handle -> int
val length : handle -> int

val dense_at : handle -> int -> int
(** Dense id at a 0-based position — four byte reads, no allocation.
    Unvalidated: a crafted file can yield an id >= [n_pages] here;
    {!to_trace} is the validating path. *)

val page_at : handle -> int -> Page.t

val to_trace : handle -> Trace.t
(** Materialise the full trace, validating the dense stream (every id
    in range, first occurrences in rank order, every dictionary page
    used).  @raise Format_error if validation fails. *)

(** {1 Whole-trace reading} *)

val read_file : string -> Trace.t
(** [to_trace (open_file path)]. *)

val of_string : string -> Trace.t
(** Parse an in-memory image (e.g. stdin); same validation as
    {!read_file}. *)

val looks_binary : string -> bool
(** Does the string start with the .ctrace magic? *)

val file_looks_binary : string -> bool
(** Does the file start with the .ctrace magic? *)
