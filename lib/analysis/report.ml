(** Rendering experiment outputs as text or markdown (for
    EXPERIMENTS.md regeneration). *)

module Tbl = Ccache_util.Ascii_table

type format = Text | Markdown

let render_output fmt (o : Experiment.output) =
  let buf = Buffer.create 1024 in
  (match fmt with
  | Text ->
      Buffer.add_string buf (Printf.sprintf "=== %s: %s ===\n" (String.uppercase_ascii o.Experiment.id) o.Experiment.title)
  | Markdown ->
      Buffer.add_string buf (Printf.sprintf "## %s — %s\n\n" (String.uppercase_ascii o.Experiment.id) o.Experiment.title));
  List.iter
    (fun t ->
      Buffer.add_string buf
        (match fmt with Text -> Tbl.to_string t | Markdown -> Tbl.to_markdown t);
      Buffer.add_char buf '\n')
    o.Experiment.tables;
  List.iter
    (fun note ->
      Buffer.add_string buf
        (match fmt with Text -> "note: " ^ note ^ "\n" | Markdown -> "- " ^ note ^ "\n"))
    o.Experiment.notes;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Collect-then-print: with a pool the experiments run concurrently but
   all rendering happens afterwards, in spec order, so the suite report
   is byte-identical to the sequential one. *)
let run_suite ?(fmt = Text) ?pool ~size specs =
  Experiment.run_all ?pool ~size specs
  |> List.map (render_output fmt)
  |> String.concat ""

(* ------------------------------------------------------------------ *)
(* Supervised suites: quarantine, chaos, checkpoint/resume             *)
(* ------------------------------------------------------------------ *)

module S = Ccache_util.Supervisor

type supervised = {
  report : string;  (** completed sections, concatenated in spec order *)
  failures : S.failure list;  (** quarantined experiments, spec order *)
  replayed : string list;  (** ids served from the checkpoint *)
}

let fmt_tag = function Text -> "text" | Markdown -> "markdown"
let size_tag = function Experiment.Quick -> "quick" | Experiment.Full -> "full"

(* Everything that affects a section's bytes goes into the fingerprint,
   so a checkpoint can only replay into the configuration that wrote
   it (Checkpoint.load rejects mismatches). *)
let fingerprint ~fmt ~size specs =
  Printf.sprintf "suite-v1 fmt=%s size=%s ids=%s" (fmt_tag fmt) (size_tag size)
    (String.concat "," (List.map (fun e -> e.Experiment.id) specs))

(* Rendering happens inside the task, so the checkpoint stores the
   section's final bytes and a resume replays them verbatim. *)
let run_suite_supervised ?(fmt = Text) ?pool ?policy ?fault ?checkpoint
    ?on_event ~size specs =
  let replayed_lock = Mutex.create () in
  let replayed = ref [] in
  let observe ev =
    (match ev with
    | S.Replayed { task } ->
        (* already serialised by the supervisor's event mutex, but stay
           self-contained in case callers ever emit directly *)
        Mutex.protect replayed_lock (fun () -> replayed := task :: !replayed)
    | _ -> ());
    match on_event with None -> () | Some f -> f ev
  in
  let tasks =
    List.map
      (fun e ->
        {
          S.id = e.Experiment.id;
          run = (fun _ctx -> render_output fmt (e.Experiment.run size));
        })
      specs
  in
  let outcomes =
    S.run ?pool ?policy ?fault ?checkpoint ~codec:S.string_codec
      ~on_event:observe tasks
  in
  {
    report = String.concat "" (S.completed outcomes);
    failures = S.failures outcomes;
    replayed = List.rev !replayed;
  }
