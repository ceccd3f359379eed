(* Tests for the zero-copy trace substrate: the binary .ctrace format
   (Trace_binary), dense interning on Trace, external address-trace
   readers (Trace_extern), the fingerprinted on-disk cache
   (Trace_cache) and the CLI's exit-2 discipline on malformed input. *)

open Ccache_trace
module W = Workloads
module Prng = Ccache_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let p u i = Page.make ~user:u ~id:i

let same_trace a b =
  Trace.requests a = Trace.requests b && Trace.n_users a = Trace.n_users b

let random_trace seed =
  let rng = Prng.create ~seed in
  let users = 1 + Prng.int rng 4 in
  let len = Prng.int rng 120 in
  let reqs =
    List.init len (fun _ ->
        Page.make ~user:(Prng.int rng users) ~id:(Prng.int rng 30))
  in
  Trace.of_list ~n_users:users reqs

let with_temp f =
  let path = Filename.temp_file "ccache_test" ".ctrace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Dense interning on Trace                                            *)
(* ------------------------------------------------------------------ *)

let test_interning_basics () =
  (* a b a c b a *)
  let t = Trace.of_list ~n_users:2 [ p 0 0; p 1 0; p 0 0; p 0 1; p 1 0; p 0 0 ] in
  checki "3 distinct" 3 (Trace.n_pages t);
  checkb "dense = first-touch ranks" true
    (Trace.dense t = [| 0; 1; 0; 2; 1; 0 |]);
  checkb "pages in first-touch order" true
    (List.init 3 (Trace.page_of_dense t) = [ p 0 0; p 1 0; p 0 1 ]);
  let dense_of page = Ccache_util.Interner.find (Trace.interner t) (Page.pack page) in
  checki "interner hits" 2 (dense_of (p 0 1));
  checki "interner misses" (-1) (dense_of (p 1 9));
  checkb "distinct_pages agrees" true
    (Trace.distinct_pages t = [ p 0 0; p 1 0; p 0 1 ])

let interning_property =
  QCheck.Test.make ~name:"interning is a consistent first-touch remap" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let t = random_trace seed in
      let dense = Trace.dense t in
      let n = Trace.length t in
      let seen = ref 0 in
      let ok = ref (Array.length dense = n) in
      for pos = 0 to n - 1 do
        let d = dense.(pos) in
        (* rank valid, first occurrences in increasing order, and the
           remap actually names the requested page *)
        ok := !ok && d >= 0 && d <= !seen && d < Trace.n_pages t;
        if d = !seen then incr seen;
        ok := !ok && Page.equal (Trace.page_of_dense t d) (Trace.request t pos)
      done;
      !ok && !seen = Trace.n_pages t)

let test_of_dense_validation () =
  let reject ~pages ~dense =
    match Trace.of_dense ~n_users:1 ~pages ~dense with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "rank out of range" true
    (reject ~pages:[| p 0 0 |] ~dense:[| 0; 1 |]);
  checkb "rank before first occurrence" true
    (reject ~pages:[| p 0 0; p 0 1 |] ~dense:[| 1; 0 |]);
  checkb "page never requested" true
    (reject ~pages:[| p 0 0; p 0 1 |] ~dense:[| 0; 0 |]);
  checkb "duplicate dictionary page" true
    (reject ~pages:[| p 0 0; p 0 0 |] ~dense:[| 0; 1 |]);
  let t = Trace.of_dense ~n_users:2 ~pages:[| p 0 3; p 1 7 |] ~dense:[| 0; 1; 0 |] in
  checkb "well-formed accepted" true
    (Trace.requests t = [| p 0 3; p 1 7; p 0 3 |])

(* ------------------------------------------------------------------ *)
(* Binary round-trips                                                  *)
(* ------------------------------------------------------------------ *)

let test_binary_string_roundtrip () =
  let t = Trace.of_list ~n_users:2 [ p 0 0; p 1 0; p 0 0; p 0 1 ] in
  checkb "string roundtrip" true (same_trace t (Trace_binary.of_string (Trace_binary.to_string t)));
  let empty = Trace.of_list ~n_users:1 [] in
  checkb "empty roundtrip" true
    (same_trace empty (Trace_binary.of_string (Trace_binary.to_string empty)))

let test_binary_file_roundtrip () =
  let t = W.generate ~seed:11 ~length:500 (W.sqlvm_mix ~scale:1) in
  with_temp (fun path ->
      Trace_binary.write_file path t;
      checkb "file roundtrip" true (same_trace t (Trace_binary.read_file path));
      (* the handle view agrees with the materialised trace *)
      let h = Trace_binary.open_file path in
      Trace_binary.validate h;
      checki "handle length" (Trace.length t) (Trace_binary.length h);
      checki "handle users" (Trace.n_users t) (Trace_binary.n_users h);
      checki "handle pages" (Trace.n_pages t) (Trace_binary.n_pages h);
      let ok = ref true in
      for i = 0 to Trace.length t - 1 do
        ok := !ok && Page.equal (Trace_binary.page_at h i) (Trace.request t i)
      done;
      checkb "handle iteration agrees" true !ok)

let binary_roundtrip_property =
  QCheck.Test.make ~name:"binary roundtrip on random traces" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let t = random_trace seed in
      let t' = Trace_binary.of_string (Trace_binary.to_string t) in
      same_trace t t'
      (* the interning remap survives the trip too *)
      && Trace.dense t = Trace.dense t'
      && Trace.n_pages t = Trace.n_pages t')

let text_binary_text_property =
  QCheck.Test.make ~name:"text -> binary -> text is the identity" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let t = random_trace seed in
      let text = Trace_io.to_string t in
      let back =
        Trace_io.to_string (Trace_binary.of_string (Trace_binary.to_string (Trace_io.of_string text)))
      in
      String.equal text back)

let test_read_any_dispatch () =
  let t = random_trace 77 in
  checkb "binary sniffed" true
    (same_trace t (Trace_io.of_string_any (Trace_binary.to_string t)));
  checkb "text sniffed" true
    (same_trace t (Trace_io.of_string_any (Trace_io.to_string t)))

(* ------------------------------------------------------------------ *)
(* Malformed binary input                                              *)
(* ------------------------------------------------------------------ *)

let fails_format s =
  match Trace_binary.of_string s with
  | exception Trace_binary.Format_error _ -> true
  | _ -> false

let set_byte s off v =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr v);
  Bytes.to_string b

let test_binary_rejects_garbage () =
  let good = Trace_binary.to_string (random_trace 3) in
  checkb "empty input" true (fails_format "");
  checkb "truncated header" true (fails_format (String.sub good 0 20));
  checkb "bad magic" true (fails_format (set_byte good 0 (Char.code 'X')));
  checkb "wrong version" true (fails_format (set_byte good 8 99));
  checkb "bad endian tag" true (fails_format (set_byte good 12 0xFF));
  checkb "non-zero reserved" true (fails_format (set_byte good 32 1));
  checkb "truncated body" true
    (fails_format (String.sub good 0 (String.length good - 1)));
  checkb "trailing junk" true (fails_format (good ^ "x"));
  (* corrupt a dense id so the first-touch invariant breaks: requests
     exist iff length > 0, so pick a trace guaranteed non-empty *)
  let t = Trace.of_list ~n_users:1 [ p 0 0; p 0 1 ] in
  let s = Trace_binary.to_string t in
  checkb "out-of-range dense id" true
    (fails_format (set_byte s (String.length s - 4) 0x7F))

let test_binary_rejects_garbage_files () =
  (* same failures through the mmap path, and Format_error (not a
     crash or Sys_error) for each *)
  let good = Trace_binary.to_string (random_trace 3) in
  List.iter
    (fun bad ->
      with_temp (fun path ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bad);
          checkb "file rejected" true
            (match Trace_binary.read_file path with
            | exception Trace_binary.Format_error _ -> true
            | _ -> false)))
    [
      "CCTRACE0 but short";
      set_byte good 8 99;
      String.sub good 0 (String.length good - 1);
    ]

(* Hand-built images: a header with chosen fields, a dictionary of
   packed pages and a dense stream, with nothing checked. *)
let craft ~n_users ~length ~pages ~ids =
  let b = Buffer.create 64 in
  let int_le bytes v =
    for k = 0 to bytes - 1 do
      Buffer.add_char b (Char.chr ((v lsr (8 * k)) land 0xFF))
    done
  in
  Buffer.add_string b "CCTRACE0";
  int_le 4 1;
  int_le 4 0x0A0B0C0D;
  int_le 4 n_users;
  int_le 4 (List.length pages);
  int_le 8 length;
  int_le 8 0;
  List.iter (fun pg -> int_le 8 (Page.pack pg)) pages;
  List.iter (int_le 4) ids;
  Buffer.contents b

(* T = 2^61 + 1 makes 4T wrap to 4 in 63-bit arithmetic, so a 52-byte
   file with one page used to pass the size check and claim 2^61 + 1
   requests. *)
let wrapped_length =
  craft ~n_users:1 ~length:((1 lsl 61) + 1) ~pages:[ p 0 0 ] ~ids:[ 0 ]

(* 56 bytes, well-formed but for its second dense id, 7, with P = 1. *)
let bad_second_id = craft ~n_users:1 ~length:2 ~pages:[ p 0 0 ] ~ids:[ 0; 7 ]

let test_crafted_files () =
  checki "wrapped-length image is 52 bytes" 52 (String.length wrapped_length);
  checki "bad-id image is 56 bytes" 56 (String.length bad_second_id);
  let format_error f =
    match f () with
    | exception Trace_binary.Format_error { offset; _ } -> offset
    | _ -> -1
  in
  checki "wrapped length: of_string" 24
    (format_error (fun () -> ignore (Trace_binary.of_string wrapped_length)));
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc wrapped_length);
      checki "wrapped length: open_file" 24
        (format_error (fun () -> ignore (Trace_binary.open_file path))));
  checki "bad id: of_string" 48
    (format_error (fun () -> ignore (Trace_binary.of_string bad_second_id)));
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc bad_second_id);
      let h = Trace_binary.open_file path in
      checkb "first request reads" true
        (Page.equal (Trace_binary.page_at h 0) (p 0 0));
      (* the zero-copy reader names the offending request's bytes *)
      checki "bad id: page_at" 52
        (format_error (fun () -> ignore (Trace_binary.page_at h 1)));
      checki "bad id: validate" 52
        (format_error (fun () -> Trace_binary.validate h));
      checki "bad id: read_file" 48
        (format_error (fun () -> ignore (Trace_binary.read_file path))));
  (* one user past the flush dummy's id space *)
  checki "user count beyond 2^24 - 1" 16
    (format_error (fun () ->
         ignore
           (Trace_binary.of_string
              (craft ~n_users:(1 lsl 24) ~length:1 ~pages:[ p 0 0 ] ~ids:[ 0 ]))))

(* [to_trace] decodes the request region into the one O(T) array the
   trace keeps: 8 bytes per request on a 64-bit host, plus the O(P)
   dictionary and interner. *)
let test_to_trace_allocation () =
  let t =
    W.generate ~seed:3 ~length:100_000
      (W.symmetric_zipf ~tenants:4 ~pages_per_tenant:256 ~skew:0.9)
  in
  with_temp (fun path ->
      Trace_binary.write_file path t;
      let h = Trace_binary.open_file path in
      let a0 = Gc.allocated_bytes () in
      let t' = Trace_binary.to_trace h in
      let per_request = (Gc.allocated_bytes () -. a0) /. 100_000. in
      checkb "same trace" true (same_trace t t');
      if per_request > 12. then
        Alcotest.failf "to_trace allocates %.1f B/request (bound 12)" per_request)

(* ------------------------------------------------------------------ *)
(* External formats                                                    *)
(* ------------------------------------------------------------------ *)

let test_extern_rw () =
  let t =
    Trace_extern.of_string_rw
      "# comment\nR 0x1000\nW 0x2000\nR 0x1000\nr 4096\nW 0xdeadbeef000\n"
  in
  checki "users" 1 (Trace.n_users t);
  checki "requests" 5 (Trace.length t);
  (* 0x1000>>12=1 -> dense 0; 0x2000>>12=2 -> dense 1; 4096>>12 -> dense 0;
     0xdeadbeef000>>12 -> dense 2: interning renames to first-touch ranks *)
  checkb "interned ids" true
    (Trace.requests t = [| p 0 0; p 0 1; p 0 0; p 0 0; p 0 2 |])

let test_extern_rw_page_shift () =
  let t = Trace_extern.of_string_rw ~page_shift:0 "R 0x10\nR 0x11\nR 0x10\n" in
  checki "distinct at shift 0" 2 (Trace.n_pages t);
  let t' = Trace_extern.of_string_rw ~page_shift:4 "R 0x10\nR 0x11\nR 0x10\n" in
  checki "merged at shift 4" 1 (Trace.n_pages t')

let test_extern_rw_errors () =
  let line_of s =
    match Trace_extern.of_string_rw s with
    | exception Trace_io.Parse_error { line; _ } -> line
    | _ -> -1
  in
  checki "garbage line number" 2 (line_of "R 0x1000\nnot a line\n");
  checki "bad address line number" 1 (line_of "R zzz\n");
  checki "bad op line number" 3 (line_of "R 0x1\nW 0x2\nX 0x3\n")

(* The shared line reader numbers skipped lines too: comments, blank
   lines and valgrind banners all count. *)
let test_extern_error_lines () =
  let line_of parse s =
    match parse s with
    | exception Trace_io.Parse_error { line; _ } -> line
    | _ -> -1
  in
  let rw = Trace_extern.of_string_rw ?page_shift:None in
  let lackey = Trace_extern.of_string_lackey ?page_shift:None in
  checki "rw after comment and blank" 4 (line_of rw "# c\n\nR 0x1\nQ 0x2\n");
  checki "rw bad address after comment" 3 (line_of rw "R 0x1\n# c\nW 0xzz\n");
  checki "lackey after banner and comment" 4
    (line_of lackey "==1== banner\n# c\nI  0400,4\nZ 1,2\n");
  checki "lackey missing size after blank" 3
    (line_of lackey "==1== banner\n\n L 04f2b7e0\n")

let test_extern_lackey () =
  let t =
    Trace_extern.of_string_lackey
      "==123== banner noise\nI  0400d7d4,8\n L 04f2b7e0,8\n S 04f2b7e8,4\n M 04f2b7f0,8\n"
  in
  checki "four refs" 4 (Trace.length t);
  (* instr page 0x400, data pages 0x4f2b: two distinct after shift 12 *)
  checki "two distinct pages" 2 (Trace.n_pages t);
  checkb "lackey error carries line" true
    (match Trace_extern.of_string_lackey "I nonsense\n" with
    | exception Trace_io.Parse_error { line = 1; _ } -> true
    | _ -> false)

(* The readers hand their first-touch ranks straight to
   [Trace.of_dense]; the trace is the one [Trace.of_pages] builds from
   the pages [(0, rank)], dictionary and dense ids included. *)
let test_extern_matches_of_pages () =
  let rng = Prng.create ~seed:31 in
  let page_numbers =
    List.init 3000 (fun _ ->
        if Prng.int rng 10 < 8 then Prng.int rng 40 else Prng.int rng (1 lsl 40))
  in
  let expected =
    let ranks = Hashtbl.create 64 in
    let rank n =
      match Hashtbl.find_opt ranks n with
      | Some r -> r
      | None ->
          let r = Hashtbl.length ranks in
          Hashtbl.add ranks n r;
          r
    in
    Trace.of_list ~n_users:1 (List.map (fun n -> p 0 (rank n)) page_numbers)
  in
  let lines f = String.concat "" (List.map f page_numbers) in
  let rw = lines (fun n -> Printf.sprintf "R 0x%x\n" ((n lsl 12) lor 0x123)) in
  let lackey =
    "==1== banner\n" ^ lines (fun n -> Printf.sprintf " L %x,8\n" (n lsl 12))
  in
  List.iter
    (fun (name, t) ->
      checkb (name ^ ": requests") true (same_trace expected t);
      checkb (name ^ ": dense ids") true (Trace.dense expected = Trace.dense t);
      checkb (name ^ ": dictionary") true (Trace.pages expected = Trace.pages t))
    [
      ("rw", Trace_extern.of_string_rw rw);
      ("lackey", Trace_extern.of_string_lackey lackey);
    ];
  checki "empty input, no pages" 0
    (Trace.n_pages (Trace_extern.of_string_rw "# nothing\n"))

(* ------------------------------------------------------------------ *)
(* Trace cache                                                         *)
(* ------------------------------------------------------------------ *)

let with_cache_dir f =
  let dir = Filename.temp_file "ccache_cache" "" in
  Sys.remove dir;
  Trace_cache.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Trace_cache.set_dir None;
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_cache_hit_and_fingerprint () =
  with_cache_dir (fun dir ->
      let calls = ref 0 in
      let gen () =
        incr calls;
        W.generate ~seed:21 ~length:200 (W.symmetric_zipf ~tenants:2 ~pages_per_tenant:16 ~skew:0.5)
      in
      let a = Trace_cache.memoize ~fingerprint:"fp-A" gen in
      let b = Trace_cache.memoize ~fingerprint:"fp-A" gen in
      checki "generator ran once" 1 !calls;
      checkb "hit is byte-identical" true (same_trace a b);
      ignore (Trace_cache.memoize ~fingerprint:"fp-B" gen);
      checki "new fingerprint regenerates" 2 !calls;
      (* a stale sidecar (hash collision stand-in) must degrade to a miss *)
      let key = Trace_cache.key_of_fingerprint "fp-A" in
      Out_channel.with_open_bin (Filename.concat dir (key ^ ".fp")) (fun oc ->
          Out_channel.output_string oc "some other fingerprint");
      ignore (Trace_cache.memoize ~fingerprint:"fp-A" gen);
      checki "collision regenerates" 3 !calls;
      (* a corrupt .ctrace must also degrade to a miss, not an error *)
      Out_channel.with_open_bin (Filename.concat dir (key ^ ".ctrace")) (fun oc ->
          Out_channel.output_string oc "CCTRACE0 corrupted");
      let c = Trace_cache.memoize ~fingerprint:"fp-A" gen in
      checkb "corrupt entry regenerated" true (same_trace a c))

let test_cache_generate_equivalence () =
  (* the real integration point: Workloads.generate through the cache
     produces the same trace as without it *)
  let specs = W.sqlvm_mix ~scale:1 in
  let plain = W.generate ~seed:5 ~length:400 specs in
  with_cache_dir (fun _dir ->
      let cold = W.generate ~seed:5 ~length:400 specs in
      let warm = W.generate ~seed:5 ~length:400 specs in
      checkb "cold = plain" true (same_trace plain cold);
      checkb "warm = plain" true (same_trace plain warm))

let test_cache_disabled_passthrough () =
  Trace_cache.set_dir None;
  let calls = ref 0 in
  let gen () =
    incr calls;
    Trace.of_list ~n_users:1 [ p 0 0 ]
  in
  ignore (Trace_cache.memoize ~fingerprint:"x" gen);
  ignore (Trace_cache.memoize ~fingerprint:"x" gen);
  checki "no caching when disabled" 2 !calls

let test_workload_fingerprint_sensitivity () =
  let specs = W.sqlvm_mix ~scale:1 in
  let fp = W.fingerprint ~seed:1 ~length:100 specs in
  checkb "seed changes fingerprint" true
    (fp <> W.fingerprint ~seed:2 ~length:100 specs);
  checkb "length changes fingerprint" true
    (fp <> W.fingerprint ~seed:1 ~length:101 specs);
  checkb "spec changes fingerprint" true
    (fp <> W.fingerprint ~seed:1 ~length:100 (W.sqlvm_mix ~scale:2));
  checks "deterministic" fp (W.fingerprint ~seed:1 ~length:100 specs)

(* Cache file names outlive the process that wrote them: a key that
   moved would silently turn every existing cache entry into a miss. *)
let test_cache_key_literal () =
  let fp = W.fingerprint ~seed:1 ~length:100 (W.sqlvm_mix ~scale:1) in
  checks "workload cache key" "dc15ebec9f9764d7" (Trace_cache.key_of_fingerprint fp);
  checks "short key" "6c411278cc300669" (Trace_cache.key_of_fingerprint "fp-A");
  checks "empty key is the FNV offset basis" "cbf29ce484222325"
    (Trace_cache.key_of_fingerprint "")

(* ------------------------------------------------------------------ *)
(* Index equivalence on file-backed traces                             *)
(* ------------------------------------------------------------------ *)

let test_index_on_loaded_trace () =
  (* Index answers must not depend on whether the trace was generated
     or loaded from the binary format *)
  let t = W.generate ~seed:31 ~length:600 (W.sqlvm_mix ~scale:1) in
  let t' = Trace_binary.of_string (Trace_binary.to_string t) in
  let i = Trace.Index.build t and i' = Trace.Index.build t' in
  let ok = ref true in
  for pos = 0 to Trace.length t - 1 do
    ok :=
      !ok
      && Trace.Index.interval_index i pos = Trace.Index.interval_index i' pos
      && Trace.Index.next_use i pos = Trace.Index.next_use i' pos
      && Trace.Index.distinct_upto i pos = Trace.Index.distinct_upto i' pos
  done;
  checkb "index agrees" true !ok

(* ------------------------------------------------------------------ *)
(* CLI exit codes on malformed input                                   *)
(* ------------------------------------------------------------------ *)

let cli = Filename.concat ".." (Filename.concat "bin" "ccache_cli.exe")

let cli_exit args =
  Sys.command (Filename.quote cli ^ " " ^ args ^ " > /dev/null 2> /dev/null")

let test_cli_exit_2 () =
  let good = Trace_binary.to_string (random_trace 3) in
  List.iter
    (fun (name, image) ->
      with_temp (fun path ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc image);
          List.iter
            (fun cmd ->
              checki (cmd ^ " on " ^ name) 2
                (cli_exit (cmd ^ " " ^ Filename.quote path)))
            [ "run --policy lru --trace"; "trace stat"; "trace head -n 3" ]))
    [ ("wrapped length", wrapped_length); ("bad second id", bad_second_id) ];
  with_temp (fun path ->
      (* corrupt header: wrong version byte *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (set_byte good 8 99));
      checki "run on wrong-version binary" 2
        (cli_exit ("run --policy lru --trace " ^ Filename.quote path));
      checki "trace stat on wrong-version binary" 2
        (cli_exit ("trace stat " ^ Filename.quote path));
      (* truncated body *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub good 0 (String.length good - 2)));
      checki "run on truncated binary" 2
        (cli_exit ("run --policy lru --trace " ^ Filename.quote path));
      (* text garbage *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "not a trace\n");
      checki "run on text garbage" 2
        (cli_exit ("run --policy lru --trace " ^ Filename.quote path));
      checki "convert on rw garbage" 2
        (cli_exit ("trace convert --format rw " ^ Filename.quote path)))

(* Malformed supervisor, routing, workload and cost flags are usage
   errors too: each binary validates them instead of letting an
   exception escape [main]. *)
let experiments = Filename.concat ".." (Filename.concat "bin" "experiments.exe")

let test_cli_flags_exit_2 () =
  let check_exit ?(env = "") exe args =
    checki (env ^ Filename.basename exe ^ " " ^ args) 2
      (Sys.command
         (env ^ Filename.quote exe ^ " " ^ args ^ " > /dev/null 2> /dev/null"))
  in
  let supervisor_flags = [ "--timeout=-1"; "--backoff nan"; "--retries=-1" ] in
  List.iter (fun f -> check_exit experiments ("--quick e1 " ^ f)) supervisor_flags;
  List.iter
    (fun f -> check_exit cli ("sweep --k-min 1 --k-max 6 " ^ f))
    (supervisor_flags @ [ "--k-factor nan"; "--k-factor inf" ]);
  List.iter
    (fun f -> check_exit cli ("serve --length 200 " ^ f))
    (supervisor_flags @ [ "--route foo"; "--overload foo" ]);
  check_exit cli "run --workload foo";
  check_exit cli "run --cost foo";
  (* workloads the generator rejects, and a cache that holds nothing *)
  List.iter
    (fun cmd ->
      List.iter
        (fun f -> check_exit cli (cmd ^ " --length 200 " ^ f))
        [ "--tenants 0"; "--pages 0"; "--skew nan" ])
    [ "run"; "gen"; "certify"; "sweep --k-min 1 --k-max 6"; "serve" ];
  List.iter
    (fun cmd -> check_exit cli (cmd ^ " --length 200 -k 0"))
    [ "run"; "certify"; "serve" ];
  (* a -k the shards cannot split evenly: a smaller one (4 shards of
     one page would serve 4) or one with a remainder *)
  List.iter
    (fun k -> check_exit cli (Printf.sprintf "serve --length 200 -k %d --shards 4" k))
    [ 2; 10; 65 ];
  (* a checkpoint whose entry header's id length wraps the parser's
     bounds check cannot be resumed from *)
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            "ccache-checkpoint v1\nfingerprint fp\nentry 4611686018427387903 1\n");
      let resume = " --checkpoint " ^ Filename.quote path ^ " --resume" in
      check_exit cli ("sweep --policy lru --k-min 16 --k-max 32 --length 100" ^ resume);
      check_exit cli ("serve --length 200" ^ resume);
      check_exit experiments ("--quick e1" ^ resume));
  (* an output path that cannot be written is refused before the run:
     every path below lies in a directory that does not exist *)
  let missing = Filename.temp_file "ccache_missing" "" in
  Sys.remove missing;
  let out name = Filename.quote (Filename.concat missing name) in
  check_exit cli ("gen --length 10 --out " ^ out "x");
  check_exit cli ("run --length 200 --metrics-out " ^ out "m.json");
  check_exit cli ("run --length 200 --trace-out " ^ out "t.json");
  check_exit ~env:("CCACHE_TRACE=" ^ out "t.json" ^ " ") cli "run --length 200";
  check_exit cli
    ("sweep --policy lru --k-min 16 --k-max 32 --length 100 --checkpoint "
    ^ out "ck");
  check_exit cli ("serve --length 200 --checkpoint " ^ out "ck");
  check_exit experiments ("--quick e1 --metrics-out " ^ out "m.json");
  check_exit experiments ("--quick e1 --checkpoint " ^ out "ck");
  checkb "no output directory created" false (Sys.file_exists missing);
  (* backoff has no jitter, and cmdliner refuses a --jitter flag *)
  checki "experiments --jitter" 124
    (Sys.command
       (Filename.quote experiments ^ " --quick e1 --jitter 2 > /dev/null 2> /dev/null"))

(* A cache size the trace cannot fill: the engine sizes its cache set
   by the requests, not by k, so the run returns at once with the
   counts of a k that holds every page (200 requests, so k = 200). *)
let test_cli_k_beyond_trace () =
  let report k =
    let out = Filename.temp_file "ccache_cli_k" ".out" in
    let code =
      Sys.command
        (Printf.sprintf "%s run --policy lru --workload zipf --length 200 -k %s > %s"
           (Filename.quote cli) k (Filename.quote out))
    in
    let lines = In_channel.with_open_bin out In_channel.input_lines in
    Sys.remove out;
    (* drop the "(k=...)" echo: everything after it must match *)
    let strip_k line =
      match String.index_opt line ':' with
      | Some i -> String.sub line i (String.length line - i)
      | None -> line
    in
    (code, List.map strip_k lines)
  in
  let code, huge = report "4611686018427387902" in
  checki "huge k exits 0" 0 code;
  let _, k200 = report "200" in
  Alcotest.(check (list string)) "hits and misses of k = 200" k200 huge

(* Any positive --rate or --clients is served.  At a rate above the
   stream lengths every client sends all it has in its first round, so
   max_int prints the report of --rate 1000; a client past the trace's
   last position has nothing to send, so max_int clients print the
   report of one client per request.  The header line echoes both. *)
let test_cli_serve_extremes () =
  let report args =
    let out = Filename.temp_file "ccache_cli_rate" ".out" in
    let code =
      Sys.command
        (Printf.sprintf "%s serve --shards 2 -k 16 --length 200 %s > %s"
           (Filename.quote cli) args (Filename.quote out))
    in
    let lines = In_channel.with_open_bin out In_channel.input_lines in
    Sys.remove out;
    checki (args ^ " exits 0") 0 code;
    checkb (args ^ " prints a report") true (List.length lines > 1);
    match lines with _ :: rest -> rest | [] -> []
  in
  Alcotest.(check (list string))
    "--rate max_int = --rate 1000"
    (report "--clients 3 --rate 1000")
    (report "--clients 3 --rate 4611686018427387903");
  Alcotest.(check (list string))
    "--clients max_int = --clients 200"
    (report "--clients 200 --rate 2")
    (report "--clients 4611686018427387903 --rate 2")

(* A cache larger than the trace's distinct pages behaves like one of
   exactly that size, for ALG and for OPT, so [certify] prints the same
   certificate at k = 2^20 as at k = distinct. *)
let test_cli_certify_beyond_pages () =
  with_temp (fun path ->
      checki "gen exits 0" 0
        (cli_exit ("gen --length 100 --binary --out " ^ Filename.quote path));
      let distinct = Trace.n_pages (Trace_binary.read_file path) in
      let certify k =
        let out = Filename.temp_file "ccache_certify" ".out" in
        let code =
          Sys.command
            (Printf.sprintf "%s certify --trace %s -k %d > %s 2> /dev/null"
               (Filename.quote cli) (Filename.quote path) k (Filename.quote out))
        in
        let text = In_channel.with_open_bin out In_channel.input_all in
        Sys.remove out;
        checki (Printf.sprintf "certify -k %d exits 0" k) 0 code;
        text
      in
      let at_distinct = certify distinct in
      checks "k = 2^20 certifies as k = distinct" at_distinct (certify (1 lsl 20));
      checks "k = distinct + 1 certifies as k = distinct" at_distinct
        (certify (distinct + 1)))

(* [gen] and [trace convert] write the same bytes to stdout as to
   [--out FILE], in both encodings: each format has one encoder. *)
let test_cli_stdout_matches_out () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let run args =
    with_temp (fun stdout_file ->
        with_temp (fun out_file ->
            let sh redirect =
              Sys.command
                (Printf.sprintf "%s %s %s 2> /dev/null" (Filename.quote cli)
                   args redirect)
            in
            checki (args ^ " exits 0") 0 (sh ("> " ^ Filename.quote stdout_file));
            checki (args ^ " --out exits 0") 0
              (sh ("--out " ^ Filename.quote out_file ^ " > /dev/null"));
            let image = read stdout_file in
            checkb (args ^ ": stdout = --out") true (image = read out_file);
            image))
  in
  let gen = "gen --workload zipf --tenants 2 --pages 64 --length 2000 --seed 9" in
  let text = run gen in
  let binary = run (gen ^ " --binary") in
  checkb "both images hold one trace" true
    (same_trace (Trace_io.of_string text) (Trace_binary.of_string binary));
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      checkb "convert to binary = gen --binary" true
        (run ("trace convert " ^ Filename.quote path) = binary));
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc binary);
      checkb "convert --text = gen" true
        (run ("trace convert --text " ^ Filename.quote path) = text))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_trace_binary"
    [
      ( "interning",
        [
          Alcotest.test_case "basics" `Quick test_interning_basics;
          Alcotest.test_case "of_dense validation" `Quick test_of_dense_validation;
        ]
        @ qsuite [ interning_property ] );
      ( "binary",
        [
          Alcotest.test_case "string roundtrip" `Quick test_binary_string_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_binary_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_binary_rejects_garbage;
          Alcotest.test_case "rejects garbage files" `Quick
            test_binary_rejects_garbage_files;
          Alcotest.test_case "crafted files" `Quick test_crafted_files;
          Alcotest.test_case "to_trace allocation" `Quick test_to_trace_allocation;
          Alcotest.test_case "read_any dispatch" `Quick test_read_any_dispatch;
        ]
        @ qsuite [ binary_roundtrip_property; text_binary_text_property ] );
      ( "extern",
        [
          Alcotest.test_case "rw format" `Quick test_extern_rw;
          Alcotest.test_case "rw page shift" `Quick test_extern_rw_page_shift;
          Alcotest.test_case "rw errors" `Quick test_extern_rw_errors;
          Alcotest.test_case "lackey format" `Quick test_extern_lackey;
          Alcotest.test_case "error lines" `Quick test_extern_error_lines;
          Alcotest.test_case "matches of_pages" `Quick test_extern_matches_of_pages;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit, collision, corruption" `Quick
            test_cache_hit_and_fingerprint;
          Alcotest.test_case "generate equivalence" `Quick
            test_cache_generate_equivalence;
          Alcotest.test_case "disabled passthrough" `Quick
            test_cache_disabled_passthrough;
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_workload_fingerprint_sensitivity;
          Alcotest.test_case "key literal" `Quick test_cache_key_literal;
        ] );
      ( "integration",
        [
          Alcotest.test_case "index on loaded trace" `Quick test_index_on_loaded_trace;
          Alcotest.test_case "cli exit 2" `Quick test_cli_exit_2;
          Alcotest.test_case "cli flag errors exit 2" `Quick
            test_cli_flags_exit_2;
          Alcotest.test_case "cli k beyond the trace" `Quick
            test_cli_k_beyond_trace;
          Alcotest.test_case "cli certify beyond the distinct pages" `Quick
            test_cli_certify_beyond_pages;
          Alcotest.test_case "cli stdout = --out" `Quick
            test_cli_stdout_matches_out;
          Alcotest.test_case "cli serve at any rate or client count" `Quick
            test_cli_serve_extremes;
        ] );
    ]
