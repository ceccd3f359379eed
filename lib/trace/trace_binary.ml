(** Zero-copy binary trace format (".ctrace").

    Little-endian, versioned layout (all offsets in bytes):
    {v
    0   8   magic  "CCTRACE0"
    8   4   format version (u32) = 1
    12  4   endianness tag (u32) = 0x0A0B0C0D, written in LE byte order
    16  4   n_users (u32)
    20  4   n_pages P (u32)
    24  8   length T (u64)
    32  8   reserved, must be 0
    40      dictionary: P x i64 — packed pages in first-touch order,
            so dense id d names the page at entry d
    40+8P   requests: T x u32 — dense ids, one per position
    v}
    Total file size is exactly [40 + 8P + 4T]; anything else is
    rejected as truncation/corruption.

    {!open_file} reads and validates the fixed header and the O(P)
    dictionary through a channel, then maps the O(T) request region
    with [Unix.map_file] — so opening is O(P), independent of T, the
    pages are shared read-only across processes and domains, and
    {!dense_at} iteration performs no per-request allocation (the
    region is a [char] Bigarray decoded by hand: the [int32] kind would
    box every element).  The format is endian-pinned rather than
    byte-swapped: big-endian hosts are refused outright, which this
    project will never meet in CI. *)

exception Format_error of { offset : int; msg : string }

let error offset fmt =
  Printf.ksprintf (fun msg -> raise (Format_error { offset; msg })) fmt

let magic = "CCTRACE0"
let version = 1
let endian_tag = 0x0A0B0C0D
let header_bytes = 40

let require_little_endian () =
  if Sys.big_endian then
    error 12 "big-endian hosts are not supported by the .ctrace format"

(* The request region as raw bytes; decoding by hand keeps accessors
   allocation-free (Bigarray's int32 kind boxes every element). *)
type region =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type handle = {
  n_users : int;
  pages : Page.t array;  (** the dictionary; dense id = index *)
  length : int;
  data : region;  (** [4 * length] bytes of u32 dense ids *)
}

let n_users h = h.n_users
let n_pages h = Array.length h.pages
let length h = h.length

(* Four reads spelled out: a local [b k] helper would capture [h] and
   [base] in a closure allocated on every call. *)
let dense_at h i =
  let d = h.data and base = 4 * i in
  Char.code (Bigarray.Array1.unsafe_get d base)
  lor (Char.code (Bigarray.Array1.unsafe_get d (base + 1)) lsl 8)
  lor (Char.code (Bigarray.Array1.unsafe_get d (base + 2)) lsl 16)
  lor (Char.code (Bigarray.Array1.unsafe_get d (base + 3)) lsl 24)
  [@@effects.no_alloc] [@@effects.deterministic]

(* The checked reader: [dense_at] trusts the position and the id, but
   a handle's request region is not validated at open, so [page_at]
   checks both before touching memory or the dictionary. *)
let page_at h i =
  if i < 0 || i >= h.length then invalid_arg "Trace_binary.page_at: position";
  let d = dense_at h i in
  let p = Array.length h.pages in
  if d >= p then
    error
      (header_bytes + (8 * p) + (4 * i))
      "dense id %d at position %d outside [0,%d)" d i p;
  h.pages.(d)

(* The zero-copy twin of [Trace.of_dense]'s stream checks, for readers
   that never materialise the trace: one pass over the mapping, no
   allocation on success, and an error at the offending request's
   byte offset. *)
let validate h =
  let p = Array.length h.pages in
  let base = header_bytes + (8 * p) in
  let seen = ref 0 in
  for i = 0 to h.length - 1 do
    let d = dense_at h i in
    if d >= p then
      error (base + (4 * i)) "dense id %d at position %d outside [0,%d)" d i p;
    if d > !seen then
      error (base + (4 * i)) "dense id %d at position %d before id %d appeared"
        d i !seen
    else if d = !seen then incr seen
  done;
  if !seen <> p then error 20 "%d of %d pages never requested" (p - !seen) p

(* {2 Writing} *)

let add_u32 buf v =
  for k = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * k)) land 0xFF))
  done

let add_u64 buf v =
  for k = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * k)) land 0xFF))
  done

(* The one encoder: [emit] receives the image in chunks of about
   [chunk_bytes], so a file and a string are written by the same code,
   with the same checks, and a file write never holds the whole
   image. *)
let chunk_bytes = 64 * 1024

let encode trace ~emit =
  require_little_endian ();
  let p = Trace.n_pages trace in
  if p > 0xFFFFFFFF then error 20 "trace has too many distinct pages for u32";
  let buf = Buffer.create chunk_bytes in
  let flush_full () =
    if Buffer.length buf >= chunk_bytes then begin
      emit buf;
      Buffer.clear buf
    end
  in
  Buffer.add_string buf magic;
  add_u32 buf version;
  add_u32 buf endian_tag;
  add_u32 buf (Trace.n_users trace);
  add_u32 buf p;
  add_u64 buf (Trace.length trace);
  add_u64 buf 0;
  for d = 0 to p - 1 do
    add_u64 buf (Page.pack (Trace.page_of_dense trace d));
    flush_full ()
  done;
  Array.iter
    (fun d ->
      add_u32 buf d;
      flush_full ())
    (Trace.dense trace);
  emit buf

let write_channel oc trace = encode trace ~emit:(Buffer.output_buffer oc)

let write_file path trace =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc trace)

let to_string trace =
  let out =
    Buffer.create
      (header_bytes + (8 * Trace.n_pages trace) + (4 * Trace.length trace))
  in
  encode trace ~emit:(Buffer.add_buffer out);
  Buffer.contents out

(* {2 Reading} *)

let get_u32 s off =
  let b k = Char.code s.[off + k] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let get_u64 s off =
  let lo = get_u32 s off and hi = get_u32 s (off + 4) in
  if hi lsr 30 <> 0 then error off "64-bit field exceeds the OCaml int range";
  lo lor (hi lsl 32)

(* Header + dictionary from their raw bytes; [file_size] must match
   the layout exactly. *)
let parse_prefix ~file_size s =
  if String.length s < header_bytes then
    error 0 "truncated header: %d bytes, need %d" (String.length s) header_bytes;
  if String.sub s 0 8 <> magic then error 0 "bad magic (not a .ctrace file)";
  let v = get_u32 s 8 in
  if v <> version then error 8 "unsupported format version %d (want %d)" v version;
  let tag = get_u32 s 12 in
  if tag <> endian_tag then error 12 "bad endianness tag 0x%08X" tag;
  let n_users = get_u32 s 16 in
  if n_users <= 0 then error 16 "non-positive user count %d" n_users;
  (* the terminal flush gives its dummy user the id [n_users] *)
  if n_users > Page.max_user then
    error 16 "user count %d exceeds %d" n_users Page.max_user;
  let p = get_u32 s 20 in
  let t = get_u64 s 24 in
  if get_u64 s 32 <> 0 then error 32 "non-zero reserved field";
  (* [p] < 2^32 keeps [8p] exact, but [t] can reach 2^62 and [4t] would
     wrap: compare [t] with the bytes the file leaves for requests
     instead of multiplying it. *)
  let dict_end = header_bytes + (8 * p) in
  let rest = file_size - dict_end in
  if rest < 0 || rest mod 4 <> 0 || rest / 4 <> t then
    error 24 "size mismatch: file has %d bytes, layout needs %d + 4 * %d"
      file_size dict_end t;
  if String.length s < dict_end then error header_bytes "truncated dictionary";
  let pages =
    Array.init p (fun d ->
        let off = header_bytes + (8 * d) in
        let packed = get_u64 s off in
        try Page.unpack packed
        with Invalid_argument _ -> error off "invalid packed page %d" packed)
  in
  Array.iter
    (fun page ->
      if Page.user page >= n_users then
        error 16 "dictionary page %s outside user range [0,%d)"
          (Page.to_string page) n_users)
    pages;
  (n_users, pages, t)

let empty_region : region =
  Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

let open_file path =
  require_little_endian ();
  let ic = open_in_bin path in
  let n_users, pages, t =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let size = in_channel_length ic in
        (* read only header + dict: O(P), never O(T) *)
        let header = really_input_string ic (min size header_bytes) in
        if String.length header < header_bytes then
          error 0 "truncated header: %d bytes, need %d" size header_bytes;
        let p = get_u32 header 20 in
        let dict_len = min (8 * p) (size - header_bytes) in
        let dict = really_input_string ic dict_len in
        parse_prefix ~file_size:size (header ^ dict))
  in
  let data =
    if t = 0 then empty_region
    else begin
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let pos = Int64.of_int (header_bytes + (8 * Array.length pages)) in
          Bigarray.array1_of_genarray
            (Unix.map_file fd ~pos Bigarray.char Bigarray.c_layout false
               [| 4 * t |]))
    end
  in
  { n_users; pages; length = t; data }

(* Materialise a full [Trace.t]: the request region is decoded into
   the one O(T) array the trace keeps, which [Trace.of_dense]
   then validates in place (range, first-touch order), so a crafted
   request region cannot produce an ill-formed trace. *)
let to_trace h =
  (* A typed [int array] loop rather than [Array.init]: its generic
     store and closure call per request made this loop slow and its
     speed hostage to code layout. *)
  let dense = Array.make h.length 0 in
  for i = 0 to h.length - 1 do
    dense.(i) <- dense_at h i
  done;
  try Trace.of_dense ~n_users:h.n_users ~pages:h.pages ~dense
  with Invalid_argument msg ->
    error (header_bytes + (8 * Array.length h.pages)) "%s" msg

let read_file path = to_trace (open_file path)

let of_string s =
  require_little_endian ();
  let n_users, pages, t = parse_prefix ~file_size:(String.length s) s in
  let base = header_bytes + (8 * Array.length pages) in
  let dense = Array.make t 0 in
  for i = 0 to t - 1 do
    dense.(i) <- get_u32 s (base + (4 * i))
  done;
  try Trace.of_dense ~n_users ~pages ~dense
  with Invalid_argument msg -> error base "%s" msg

let looks_binary s = String.length s >= 8 && String.sub s 0 8 = magic

let file_looks_binary path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try really_input_string ic 8 = magic with End_of_file -> false)
