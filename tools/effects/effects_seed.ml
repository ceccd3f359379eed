(** Primitive effect classes for external (stdlib / unix) entry points
    — the leaves the fixpoint propagates from.

    Paths arrive canonicalised (local module aliases expanded,
    [Lib__Module] rewritten to [Lib.Module]); a leading [Stdlib.] is
    stripped here.  Classification is an exact table first, then
    module-prefix defaults.  Unknown externs are treated as effect-free:
    the table's job is to cover the effect *sources*; an optimistic
    default keeps the analysis usable, and the per-class coverage is
    regression-pinned by the fixture tests.  [--list-externs] prints
    every unclassified extern a scan met, so gaps are visible rather
    than silent. *)

let strip_stdlib p =
  if String.length p > 7 && String.sub p 0 7 = "Stdlib." then
    String.sub p 7 (String.length p - 7)
  else p

let e = Effect_set.of_list

open Effect_set

(* ---- exact classifications ---- *)

let exact : (string * Effect_set.t) list =
  [
    (* wall clock *)
    ("Unix.gettimeofday", e [ Time ]);
    ("Unix.time", e [ Time ]);
    ("Unix.clock", e [ Time ]);
    ("Unix.times", e [ Time; Alloc ]);
    ("Unix.gmtime", e [ Time; Alloc ]);
    ("Unix.localtime", e [ Time; Alloc ]);
    ("Sys.time", e [ Time ]);
    (* sleeps: blocking syscalls, not clock reads *)
    ("Unix.sleep", e [ Io ]);
    ("Unix.sleepf", e [ Io ]);
    (* spawning *)
    ("Domain.spawn", e [ Spawn; Alloc ]);
    ("Domain.join", e [ Io ]);
    ("Thread.create", e [ Spawn; Alloc ]);
    (* formatted printing that only builds strings *)
    ("Printf.sprintf", e [ Alloc ]);
    ("Printf.ksprintf", e [ Alloc ]);
    ("Format.asprintf", e [ Alloc ]);
    ("Format.sprintf", e [ Alloc ]);
    (* allocation-free stdlib odds and ends that the prefix defaults
       below would otherwise misclassify *)
    ("Hashtbl.find", empty);
    ("Hashtbl.mem", empty);
    ("Hashtbl.length", empty);
    ("Hashtbl.iter", empty);
    ("Hashtbl.hash", empty);
    ("Buffer.length", empty);
    ("Buffer.clear", empty);
    ("Queue.length", empty);
    ("Queue.is_empty", empty);
    ("Queue.iter", empty);
    ("Stack.length", empty);
    ("Stack.is_empty", empty);
    ("Atomic.make", e [ Alloc ]);
    (* Sys state reads *)
    ("Sys.getenv", e [ Io ]);
    ("Sys.getenv_opt", e [ Io; Alloc ]);
    ("Sys.command", e [ Io ]);
    ("Sys.remove", e [ Io ]);
    ("Sys.rename", e [ Io ]);
    ("Sys.file_exists", e [ Io ]);
    ("Sys.is_directory", e [ Io ]);
    ("Sys.readdir", e [ Io; Alloc ]);
    ("Sys.argv", empty);
    (* exit is observable *)
    ("exit", e [ Io ]);
  ]

(* ---- error-path helpers: allocation on a path that never returns is
   invisible to steady-state budgets, so callers do not inherit it.
   ([raise] itself allocates nothing; the payload construction is
   seeded at the construction site, which sits on the same dead
   path — see the [\[@effects.allow\]] escape in DESIGN.md §12.) ---- *)

let cold : string list =
  [ "invalid_arg"; "failwith"; "raise"; "raise_notrace"; "assert_failure" ]

(* ---- allocation-free members of otherwise-allocating modules ---- *)

let no_alloc_members =
  [
    ("List.",
     [ "iter"; "iteri"; "fold_left"; "length"; "mem"; "memq"; "exists";
       "for_all"; "hd"; "tl"; "nth"; "compare_lengths"; "compare_length_with";
       "iter2"; "fold_left2"; "exists2"; "for_all2"; "mem_assoc" ]);
    ("Array.",
     [ "get"; "set"; "unsafe_get"; "unsafe_set"; "length"; "iter"; "iteri";
       "fold_left"; "fold_right"; "blit"; "fill"; "exists"; "for_all";
       "mem"; "memq"; "sort"; "iter2" ]);
    ("Float.Array.",
     [ "get"; "set"; "unsafe_get"; "unsafe_set"; "length"; "iter"; "iteri";
       "fold_left"; "blit"; "fill"; "exists"; "for_all"; "mem"; "sort" ]);
    ("String.",
     [ "length"; "get"; "unsafe_get"; "compare"; "equal"; "contains";
       "contains_from"; "rcontains_from"; "index"; "rindex"; "index_from";
       "iter"; "iteri"; "for_all"; "exists"; "starts_with"; "ends_with";
       "blit" ]);
    ("Bytes.",
     [ "length"; "get"; "set"; "unsafe_get"; "unsafe_set"; "blit";
       "blit_string"; "fill"; "unsafe_blit"; "unsafe_fill" ]);
    ("Option.", [ "value"; "get"; "is_some"; "is_none"; "iter"; "fold";
                  "equal"; "compare" ]);
    ("Result.", [ "is_ok"; "is_error"; "get_ok"; "get_error"; "iter";
                  "iter_error"; "fold" ]);
    ("Either.", [ "is_left"; "is_right"; "fold"; "iter" ]);
    ("Atomic.",
     [ "get"; "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr";
       "decr" ]);
    ("Domain.DLS.", [ "get"; "set" ]);
    ("Float.", [ "abs"; "max"; "min"; "compare"; "equal"; "is_nan";
                 "is_finite"; "is_integer"; "of_int"; "to_int"; "round";
                 "trunc"; "rem"; "fma"; "succ"; "pred"; "sign_bit" ]);
    ("Int.", [ "abs"; "max"; "min"; "compare"; "equal"; "shift_left";
               "shift_right"; "logand"; "logor"; "logxor"; "lognot";
               "to_float"; "of_float"; "succ"; "pred" ]);
    ("Char.", [ "code"; "chr"; "compare"; "equal"; "lowercase_ascii";
                "uppercase_ascii" ]);
    ("Fun.", [ "id"; "flip"; "negate"; "protect" ]);
    (* the unboxing conversion: an [int32] operand read straight off a
       Bigarray (or computed in place) is never boxed for it *)
    ("Int32.", [ "to_int" ]);
    (* element access allocates only when the kind or layout is not
       known at the call site, which {!Effects_extract} reads off the
       call's type *)
    ("Bigarray.Array1.",
     [ "get"; "set"; "unsafe_get"; "unsafe_set"; "dim"; "kind"; "layout";
       "size_in_bytes"; "blit"; "fill" ]);
  ]

(* module prefixes whose *other* members default to [Alloc] *)
let allocating_prefixes =
  [ "List."; "Array."; "Float.Array."; "String."; "Bytes."; "Option.";
    "Result."; "Either."; "Seq."; "Map."; "Set."; "Buffer."; "Queue.";
    "Stack."; "Lazy."; "Int64."; "Int32."; "Nativeint."; "Marshal.";
    "Digest."; "Filename."; "Scanf."; "Str."; "Hashtbl."; "Fun."; "Bigarray.";
    "Domain.DLS."; "Gc."; "Obj."; "Printexc."; "Lexing."; "Parsing." ]

(* channel / console I/O *)
let io_exact =
  [ "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_int"; "prerr_float";
    "prerr_char"; "prerr_bytes"; "read_line"; "read_int"; "read_int_opt";
    "read_float"; "read_float_opt"; "open_in"; "open_in_bin"; "open_in_gen";
    "open_out"; "open_out_bin"; "open_out_gen"; "close_in"; "close_in_noerr";
    "close_out"; "close_out_noerr"; "input_line"; "input_char"; "input_byte";
    "input_value"; "input"; "really_input"; "really_input_string";
    "output_string"; "output_bytes"; "output_char"; "output_byte";
    "output_value"; "output_substring"; "output"; "flush"; "flush_all";
    "pos_in"; "pos_out"; "seek_in"; "seek_out"; "in_channel_length";
    "out_channel_length"; "set_binary_mode_in"; "set_binary_mode_out" ]

(* ---- mutator table: callee path -> 0-based index of the positional
   argument it mutates (used for the global-write check) ---- *)

let mutators : (string * int) list =
  [
    (":=", 0);
    ("Array.set", 0); ("Array.unsafe_set", 0); ("Array.fill", 0);
    ("Array.blit", 2); ("Array.sort", 1);
    ("Float.Array.set", 0); ("Float.Array.unsafe_set", 0);
    ("Float.Array.fill", 0); ("Float.Array.blit", 2);
    ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Bytes.fill", 0);
    ("Bytes.blit", 2); ("Bytes.blit_string", 2);
    ("Hashtbl.add", 0); ("Hashtbl.replace", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.reset", 0); ("Hashtbl.clear", 0); ("Hashtbl.filter_map_inplace", 1);
    ("Buffer.add_string", 0); ("Buffer.add_char", 0); ("Buffer.add_bytes", 0);
    ("Buffer.add_substring", 0); ("Buffer.add_buffer", 0);
    ("Buffer.clear", 0); ("Buffer.reset", 0); ("Buffer.truncate", 0);
    ("Queue.push", 1); ("Queue.add", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Queue.clear", 0); ("Queue.transfer", 0);
    ("Stack.push", 1); ("Stack.pop", 0); ("Stack.clear", 0);
    ("incr", 0); ("decr", 0);
  ]

let mutated_arg path = List.assoc_opt (strip_stdlib path) mutators

let tbl = Hashtbl.create 512

let () =
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) exact;
  List.iter (fun k -> Hashtbl.replace tbl k empty) cold;
  List.iter (fun k -> Hashtbl.replace tbl k (e [ Io ])) io_exact;
  List.iter
    (fun (prefix, members) ->
      List.iter
        (fun m ->
          let k = prefix ^ m in
          if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k empty)
        members)
    no_alloc_members

let is_cold path = List.mem (strip_stdlib path) cold

let has_prefix p s = String.length s >= String.length p
                     && String.sub s 0 (String.length p) = p

(** Unknown externs seen during a scan, for [--list-externs]. *)
let unknown : (string, unit) Hashtbl.t = Hashtbl.create 64

(** Classify a canonical extern path.  Only called for paths that did
    not resolve to a graph node. *)
let classify path : Effect_set.t =
  let p = strip_stdlib path in
  match Hashtbl.find_opt tbl p with
  | Some s -> s
  | None ->
      if has_prefix "Random." p then e [ Rand; Alloc ]
      else if has_prefix "Unix." p then e [ Io; Alloc ]
      else if has_prefix "Printf." p || has_prefix "Format." p
              || has_prefix "Fmt." p || has_prefix "In_channel." p
              || has_prefix "Out_channel." p then e [ Io; Alloc ]
      else if p = "^" || p = "@" then e [ Alloc ]
      else if p = "ref" || p = "!" then
        (* [ref]: the native compiler unboxes refs that stay local (the
           repo's standard mutable-loop idiom — probe/sift/fold cells),
           so seeding [alloc] here would poison every hot path with a
           false positive.  Escaping refs are the known blind spot; the
           dynamic Gc byte-budget tests own that residual. *)
        empty
      else if List.exists (fun pr -> has_prefix pr p) allocating_prefixes then
        e [ Alloc ]
      else begin
        (* operators, conversions, comparisons, …: effect-free *)
        if String.length p > 0
           && (p.[0] >= 'A' && p.[0] <= 'Z')
           && String.contains p '.'
        then Hashtbl.replace unknown p ();
        empty
      end

let unknown_externs () =
  Hashtbl.fold (fun k () l -> k :: l) unknown [] |> List.sort String.compare
