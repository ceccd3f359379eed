(** Fingerprinted on-disk trace cache.

    [memoize ~fingerprint gen] returns [gen ()]'s trace, backed by a
    directory of [.ctrace] binaries keyed by a 64-bit FNV-1a hash of
    the fingerprint string.  A [<hash>.fp] sidecar stores the full
    fingerprint, so a hash collision degrades to a cache miss, never to
    a wrong trace.  Workload generation is deterministic in its
    fingerprint, which gives the two crucial properties: a cache hit is
    byte-for-byte the trace that would have been generated, and
    concurrent writers (jobs 8, parallel CI) all write identical bytes
    — the atomic tmp+rename publication below just decides who wins.

    Disabled (the default, [set_dir None]) this module is a transparent
    pass-through; cache {e write} failures (read-only dir, disk full)
    are swallowed and the generated trace returned, so the cache can
    only ever trade speed, not correctness. *)

let dir : string option ref = ref None

let set_dir d = dir := d

(* FNV-1a-64 is stable across runs and processes, unlike [Hashtbl.hash]
   which the lint rules also frown on for keys that reach the
   filesystem. *)
let key_of_fingerprint fp =
  Printf.sprintf "%016Lx" (Ccache_util.Prng.hash_string fp)

let write_all path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let mkdir_p d =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go d

let lookup ~dir ~key ~fingerprint =
  let ctrace = Filename.concat dir (key ^ ".ctrace") in
  let fp = Filename.concat dir (key ^ ".fp") in
  match Trace_io.read_all fp with
  | stored when stored = fingerprint -> (
      try Some (Trace_binary.read_file ctrace)
      with Trace_binary.Format_error _ | Sys_error _ -> None)
  | _ -> None (* hash collision or stale sidecar: treat as a miss *)
  | exception Sys_error _ -> None

(* Publish [.ctrace] before [.fp]: a reader that races us sees at worst
   a missing sidecar (a miss).  [Trace_binary.write_file] publishes the
   [.ctrace] by rename itself; the sidecar's tmp name carries the
   process and domain, so concurrent writers never clobber each other's
   half-written files — and since all writers of one key produce
   identical bytes, last-rename-wins is harmless. *)
let store ~dir ~key ~fingerprint trace =
  try
    mkdir_p dir;
    let tf =
      Filename.concat dir
        (Printf.sprintf ".%s.%d.%d.tmp.fp" key (Unix.getpid ())
           (Domain.self () :> int))
    in
    Trace_binary.write_file (Filename.concat dir (key ^ ".ctrace")) trace;
    write_all tf fingerprint;
    Sys.rename tf (Filename.concat dir (key ^ ".fp"))
  with Sys_error _ | Unix.Unix_error _ | Trace_binary.Format_error _ -> ()

let memoize ~fingerprint gen =
  match !dir with
  | None -> gen ()
  | Some dir -> (
      let key = key_of_fingerprint fingerprint in
      match lookup ~dir ~key ~fingerprint with
      | Some trace -> trace
      | None ->
          let trace = gen () in
          store ~dir ~key ~fingerprint trace;
          trace)
