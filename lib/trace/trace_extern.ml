(** Readers for external address-trace formats.

    Two text formats from the wild:

    - ["rw"] (cachetrace-style): one access per line, [R 0xADDR] or
      [W 0xADDR] (decimal addresses also accepted);
    - ["lackey"] (valgrind [--tool=lackey --trace-mem=yes]): lines
      [I addr,size] for instruction fetches and [ L addr,size] /
      [ S addr,size] / [ M addr,size] for data loads, stores and
      modifies, addresses in bare hex.  Valgrind banner lines
      ([==pid== ...]) are skipped.

    Addresses are mapped to pages by [addr lsr page_shift] (default 12:
    4 KiB pages) and then {e interned}: raw 64-bit page numbers exceed
    {!Page}'s 38-bit id field, so each distinct page gets its
    first-touch rank as its id, under a single user 0.  The renaming is
    order-preserving and collision-free, and every caching policy in
    this repository is invariant under it — policies only ever compare
    pages for identity.

    Lines come from {!Trace_io.iter_lines} (blank and ['#'] lines
    skipped), and malformed ones raise {!Trace_io.Parse_error} with
    the 1-based line number, as in the native text reader. *)

let default_page_shift = 12

module A1 = Bigarray.Array1

(* Growable buffer of the trace's u32 dense ids: avoids a boxed list of
   millions of cons cells while parsing long traces, and {!contents}
   hands the trace 4 bytes per request. *)
type buf = { mutable data : Trace.ids; mutable len : int }

let buf_create () = { data = Trace.create_ids 1024; len = 0 }

let buf_push b v =
  if b.len = A1.dim b.data then begin
    let bigger = Trace.create_ids (2 * b.len) in
    A1.blit b.data (A1.sub bigger 0 b.len);
    b.data <- bigger
  end;
  A1.unsafe_set b.data b.len (Int32.of_int v);
  b.len <- b.len + 1

(* A copy of exactly the ids pushed, so the spare capacity is freed. *)
let contents b =
  let out = Trace.create_ids b.len in
  A1.blit (A1.sub b.data 0 b.len) out;
  out

let parse_error line msg = raise (Trace_io.Parse_error { line; msg })

let parse_addr ~line s =
  (* int_of_string understands the 0x prefix; bare decimal also works *)
  match int_of_string_opt s with
  | Some a when a >= 0 -> a
  | _ -> parse_error line ("invalid address: " ^ s)

(* Both formats: [addr_of line text tokens] is the address a line
   references, or [None] for a line to skip.  A non-negative address
   shifts to a non-negative page number, which keys the interner. *)
let parse ~page_shift s addr_of =
  if page_shift < 0 || page_shift > 62 then
    invalid_arg "Trace_extern: page_shift outside [0, 62]";
  let ranks = Ccache_util.Interner.create ~capacity:4096 in
  let dense = buf_create () in
  Trace_io.iter_lines s (fun line text tokens ->
      match addr_of line text tokens with
      | Some addr ->
          buf_push dense (Ccache_util.Interner.intern ranks (addr lsr page_shift))
      | None -> ());
  (* the ranks are already the trace's dense ids, and rank [d] is the
     page [(0, d)] *)
  Trace.of_dense ~n_users:1
    ~pages:
      (Array.init (Ccache_util.Interner.length ranks) (fun d -> Page.make ~user:0 ~id:d))
    ~dense:(contents dense)

(* {2 rw format} *)

let of_string_rw ?(page_shift = default_page_shift) s =
  parse ~page_shift s (fun line _ tokens ->
      match tokens with
      | [ ("R" | "W" | "r" | "w"); addr ] -> Some (parse_addr ~line addr)
      | _ -> parse_error line "expected 'R 0xADDR' or 'W 0xADDR'")

(* {2 valgrind lackey format} *)

let is_banner line = String.length line >= 2 && line.[0] = '=' && line.[1] = '='

let of_string_lackey ?(page_shift = default_page_shift) s =
  parse ~page_shift s (fun line text tokens ->
      if is_banner text then None
      else
        match tokens with
        | [ ("I" | "L" | "S" | "M"); ref_ ] -> (
            (* "addr,size" with bare-hex addr *)
            match String.index_opt ref_ ',' with
            | Some comma -> Some (parse_addr ~line ("0x" ^ String.sub ref_ 0 comma))
            | None -> parse_error line "expected 'addr,size' reference")
        | _ -> parse_error line ("unrecognised lackey line: " ^ text))

(* {2 Dispatch} *)

type format = Rw | Lackey

let format_of_string = function
  | "rw" -> Some Rw
  | "lackey" -> Some Lackey
  | _ -> None

let of_string ?page_shift fmt s =
  match fmt with
  | Rw -> of_string_rw ?page_shift s
  | Lackey -> of_string_lackey ?page_shift s
