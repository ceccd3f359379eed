(** Plain-text trace serialisation.

    Format (line-oriented, '#' comments allowed):
    {v
    # convex-caching trace v1
    users <n>
    <user> <page>
    <user> <page>
    ...
    v}
    The header line and [users] directive are mandatory; each following
    non-comment line is one request. *)

let magic = "# convex-caching trace v1"

(* The one encoder: [emit] receives the image in chunks of about
   [chunk_bytes], so a file and a string are written by the same code
   and a file write never holds the whole image. *)
let chunk_bytes = 64 * 1024

let encode trace ~emit =
  let buf = Buffer.create chunk_bytes in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "users %d\n" (Trace.n_users trace);
  Array.iter
    (fun p ->
      Printf.bprintf buf "%d %d\n" (Page.user p) (Page.id p);
      if Buffer.length buf >= chunk_bytes then begin
        emit buf;
        Buffer.clear buf
      end)
    (Trace.requests trace);
  emit buf

let write_channel oc trace = encode trace ~emit:(Buffer.output_buffer oc)

let write_file path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_channel oc trace)

let to_string trace =
  let out = Buffer.create 1024 in
  encode trace ~emit:(Buffer.add_buffer out);
  Buffer.contents out

exception Parse_error of { line : int; msg : string }

let parse_error line msg = raise (Parse_error { line; msg })

(* {2 Reading} *)

let read_all = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_bin path In_channel.input_all

let iter_lines s f =
  let n = String.length s in
  let rec go line start =
    if start < n then begin
      let stop =
        match String.index_from_opt s start '\n' with Some i -> i | None -> n
      in
      let text = String.trim (String.sub s start (stop - start)) in
      if text <> "" && text.[0] <> '#' then
        f line text
          (String.split_on_char ' ' text |> List.filter (fun tok -> tok <> ""));
      go (line + 1) (stop + 1)
    end
  in
  go 1 0

let looks_text s =
  let first =
    match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s
  in
  String.trim first = magic

(* The magic line is itself a comment, so the line reader skips it. *)
let of_string s =
  if not (looks_text s) then parse_error 1 "missing or wrong magic header";
  let n_users = ref None in
  let requests = ref [] in
  iter_lines s (fun line text tokens ->
      match tokens with
      | [ "users"; n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 ->
              if !n_users <> None then parse_error line "duplicate users directive";
              n_users := Some n
          | _ -> parse_error line "invalid user count")
      | [ u; p ] -> (
          match (int_of_string_opt u, int_of_string_opt p) with
          | Some user, Some id when user >= 0 && id >= 0 -> (
              match Page.make ~user ~id with
              | page -> requests := page :: !requests
              | exception Invalid_argument msg -> parse_error line msg)
          | _ -> parse_error line "invalid request line")
      | _ -> parse_error line ("unrecognised line: " ^ text));
  match !n_users with
  | None -> parse_error 0 "missing users directive"
  | Some n_users -> (
      try Trace.of_list ~n_users (List.rev !requests)
      with Invalid_argument msg -> parse_error 0 msg)

let read_file path = of_string (read_all path)

(* {2 Format auto-dispatch} *)

(* Binary-or-text sniffing: everything the CLI loads goes through these
   so users never have to say which format a trace file is in. *)

let of_string_any s =
  if Trace_binary.looks_binary s then Trace_binary.of_string s else of_string s

let read_any path =
  if Trace_binary.file_looks_binary path then Trace_binary.read_file path
  else read_file path
