(** Zero-copy binary trace format (".ctrace").

    Little-endian, versioned, endian-pinned; see DESIGN.md section 14
    for the byte-level layout.  {!open_file} is O(P) in the number of
    distinct pages — the O(T) request region is mapped with
    [Unix.map_file] as an [int32] Bigarray, shared read-only across
    domains and processes, and read without per-request allocation.
    {!to_trace} checks the mapping in place and takes it over as the
    trace's dense ids ({!Trace.ids}): nothing O(T) is copied, and the
    mapping lives as long as the trace.

    A file is published by renaming a finished temporary file over its
    path ({!write_file}), so a reader that has the old file mapped keeps
    the old requests.  Rewriting or truncating a [.ctrace] file in place
    while a process reads it is undefined: its trace changes under it,
    and a read past a truncated end raises SIGBUS. *)

exception Format_error of { offset : int; msg : string }
(** Raised on malformed input: bad magic, unsupported version, wrong
    endianness tag, size/layout mismatch, or an ill-formed dictionary
    or dense stream.  [offset] is the byte offset of the offending
    field. *)

(** {1 Writing} *)

val write_file : string -> Trace.t -> unit
(** Write the image to a temporary file beside the path (named by
    process and domain), then rename it over the path: the file appears
    whole or not at all, and a process that has the old file mapped
    keeps reading the old one.  The temporary file is removed if the
    write fails.  A path that exists but is not a regular file (a
    symbolic link, a device, a pipe) is written through in place.
    @raise Format_error on a big-endian host, or when the page count
    does not fit the u32 header field.
    @raise Sys_error if the directory cannot be written. *)

val write_channel : out_channel -> Trace.t -> unit
(** {!write_file}'s encoder on an open channel (e.g. [stdout]); same
    checks. *)

val to_string : Trace.t -> string
(** The same image in memory; same checks. *)

(** {1 Zero-copy handles} *)

type handle
(** An open binary trace: decoded header and page dictionary plus the
    mmapped request region.  The mapping is released when neither the
    handle nor a trace built from it is reachable any more. *)

val open_file : string -> handle
(** Validate the header and dictionary and map the request region.
    O(P); does not scan the T requests.
    @raise Format_error on malformed input or a big-endian host.
    @raise Sys_error if the file cannot be opened. *)

val n_users : handle -> int
val n_pages : handle -> int
val length : handle -> int

val dense_at : handle -> int -> int
(** Dense id at a 0-based position — one 32-bit load, no allocation.
    Unchecked: only a position in [\[0, length h)] may reach it, and a
    crafted file can yield an id >= [n_pages] here; {!page_at} and
    {!to_trace} are the checked paths. *)

val page_at : handle -> int -> Page.t
(** Page at a 0-based position, read off the mapping without
    materialising the trace.
    @raise Invalid_argument if the position is outside
    [\[0, length h)].
    @raise Format_error at the request's byte offset if its dense id is
    not below [n_pages]. *)

val validate : handle -> unit
(** Check the request region in place without building the trace:
    {!Trace.check_ids}, the pass {!to_trace} runs, so every dense id
    below [n_pages], first occurrences in id order, every dictionary
    page requested.  O(T) reads, no allocation on success.
    @raise Format_error at the first offending request's byte offset
    (or the page-count field, for an unused page), with a message
    naming its position. *)

val to_trace : handle -> Trace.t
(** The full trace, built by {!Trace.of_dense} over the mapped request
    region: the stream is checked in place (every id in range, first
    occurrences in id order, every dictionary page used) and the
    mapping becomes the trace's dense ids.  Allocates only the O(P)
    interner; no request is copied.
    @raise Format_error at the request region's offset if a check
    fails, with a message naming the offending position. *)

(** {1 Whole-trace reading} *)

val read_file : string -> Trace.t
(** [to_trace (open_file path)]. *)

val of_string : string -> Trace.t
(** Parse an in-memory image (e.g. stdin) into fresh dense ids (4 bytes
    per request); same validation as {!read_file}. *)

val looks_binary : string -> bool
(** Does the string start with the .ctrace magic? *)

val file_looks_binary : string -> bool
(** Does the file start with the .ctrace magic? *)
