(** Atomic on-disk snapshots of completed task payloads (see the .mli
    for the format and the resume contract). *)

let magic = "ccache-checkpoint v1"

type t = {
  path : string;
  fingerprint : string;
  lock : Mutex.t;  (** guards [entries], [dirty] — workers record concurrently *)
  entries : (string, string) Hashtbl.t;
  mutable dirty : int;  (** records since the last flush *)
  flush_every : int;
}

let validate ~path ~fingerprint ~flush_every =
  if path = "" then invalid_arg "Checkpoint: empty path";
  if String.contains fingerprint '\n' then
    invalid_arg "Checkpoint: fingerprint must be a single line";
  if flush_every < 1 then invalid_arg "Checkpoint: flush_every must be >= 1"

let create ?(flush_every = 1) ~path ~fingerprint () =
  validate ~path ~fingerprint ~flush_every;
  {
    path;
    fingerprint;
    lock = Mutex.create ();
    entries = Hashtbl.create 64;
    dirty = 0;
    flush_every;
  }

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

(* Entries are written sorted by id so a checkpoint's bytes depend only
   on its contents, never on completion order across domains. *)
let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf ("fingerprint " ^ t.fingerprint);
  Buffer.add_char buf '\n';
  Hashtbl.fold (fun id payload acc -> (id, payload) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (id, payload) ->
         Buffer.add_string buf
           (Printf.sprintf "entry %d %d\n" (String.length id)
              (String.length payload));
         Buffer.add_string buf id;
         Buffer.add_char buf '\n';
         Buffer.add_string buf payload;
         Buffer.add_char buf '\n');
  Buffer.contents buf

(* Write-to-temp + rename: a crash mid-write leaves the previous
   snapshot intact, so a checkpoint on disk is always parseable. *)
let flush_locked t =
  let tmp = t.path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try output_string oc (render t)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp t.path;
  t.dirty <- 0

let flush t = Mutex.protect t.lock (fun () -> flush_locked t)

let record t ~id payload =
  if String.contains id '\n' then
    invalid_arg "Checkpoint.record: id must be a single line";
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.entries id payload;
      t.dirty <- t.dirty + 1;
      if t.dirty >= t.flush_every then flush_locked t)

let find t id = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.entries id)

let ids t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun id _ acc -> id :: acc) t.entries [])
  |> List.sort String.compare

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.entries)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

exception Corrupt of string

let parse ~path contents =
  let pos = ref 0 in
  let len = String.length contents in
  let fail msg = raise (Corrupt (Printf.sprintf "%s: %s" path msg)) in
  let line () =
    if !pos >= len then fail "truncated (expected a line)";
    match String.index_from_opt contents !pos '\n' with
    | None -> fail "truncated (unterminated line)"
    | Some i ->
        let l = String.sub contents !pos (i - !pos) in
        pos := i + 1;
        l
  in
  (* [n > len - !pos], not [!pos + n > len]: a header length near
     [max_int] would wrap the sum *)
  let take n what =
    if n > len - !pos then fail (Printf.sprintf "truncated (%s)" what);
    let s = String.sub contents !pos n in
    pos := !pos + n;
    s
  in
  let expect_newline what =
    if take 1 what <> "\n" then fail (Printf.sprintf "malformed (%s)" what)
  in
  if line () <> magic then fail "not a checkpoint file (bad magic)";
  let fp_line = line () in
  let prefix = "fingerprint " in
  if
    String.length fp_line < String.length prefix
    || String.sub fp_line 0 (String.length prefix) <> prefix
  then fail "missing fingerprint line";
  let fingerprint =
    String.sub fp_line (String.length prefix)
      (String.length fp_line - String.length prefix)
  in
  let entries = Hashtbl.create 64 in
  while !pos < len do
    let header = line () in
    match String.split_on_char ' ' header with
    | [ "entry"; id_len; payload_len ] -> (
        match (int_of_string_opt id_len, int_of_string_opt payload_len) with
        | Some id_len, Some payload_len when id_len >= 0 && payload_len >= 0 ->
            let id = take id_len "entry id" in
            expect_newline "after entry id";
            let payload = take payload_len "entry payload" in
            expect_newline "after entry payload";
            Hashtbl.replace entries id payload
        | _ -> fail (Printf.sprintf "bad entry header %S" header))
    | _ -> fail (Printf.sprintf "bad entry header %S" header)
  done;
  (fingerprint, entries)

let load ?(flush_every = 1) ~path ~fingerprint () =
  validate ~path ~fingerprint ~flush_every;
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error (Printf.sprintf "cannot read checkpoint: %s" e)
  | contents -> (
      match parse ~path contents with
      | exception Corrupt msg -> Error msg
      | stored_fp, entries ->
          if stored_fp <> fingerprint then
            Error
              (Printf.sprintf
                 "%s: fingerprint mismatch — checkpoint was written by a \
                  different run configuration (stored %S, expected %S)"
                 path stored_fp fingerprint)
          else
            Ok
              {
                path;
                fingerprint;
                lock = Mutex.create ();
                entries;
                dirty = 0;
                flush_every;
              })

let load_or_create ?flush_every ~path ~fingerprint () =
  if Sys.file_exists path then load ?flush_every ~path ~fingerprint ()
  else Ok (create ?flush_every ~path ~fingerprint ())
