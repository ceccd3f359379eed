(** Chrome trace-event JSON exporter.

    Emits the subset of the Trace Event Format that chrome://tracing
    and Perfetto load: an object with a ["traceEvents"] array of
    complete events (["ph":"X"]) and instant events (["ph":"i"],
    thread-scoped).  Field order is fixed — name, cat, ph, ts, (dur|s),
    pid, tid, args — and timestamps are fixed-point microseconds, so
    the output is byte-stable for a given span list (golden-tested).

    [pid] is always 1 (one process); [tid] is the recording domain's
    id, so Perfetto renders one track per domain — worker occupancy is
    directly visible. *)

module J = Obs_json

let arg_value = function
  | Sink.Int i -> string_of_int i
  | Sink.Float f -> J.num f
  | Sink.Str s -> J.str s
  | Sink.Bool b -> if b then "true" else "false"

let args_json args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> J.str k ^ ":" ^ arg_value v) args)
  ^ "}"

let event_json ~origin (s : Sink.span) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"name\":";
  Buffer.add_string buf (J.str s.Sink.sp_name);
  Buffer.add_string buf ",\"cat\":";
  Buffer.add_string buf (J.str s.Sink.sp_cat);
  Buffer.add_string buf ",\"ph\":";
  Buffer.add_string buf (if s.Sink.sp_instant then "\"i\"" else "\"X\"");
  Buffer.add_string buf ",\"ts\":";
  Buffer.add_string buf (J.micros (s.Sink.sp_start -. origin));
  if s.Sink.sp_instant then Buffer.add_string buf ",\"s\":\"t\""
  else begin
    Buffer.add_string buf ",\"dur\":";
    Buffer.add_string buf (J.micros s.Sink.sp_dur)
  end;
  Buffer.add_string buf ",\"pid\":1,\"tid\":";
  Buffer.add_string buf (string_of_int s.Sink.sp_domain);
  Buffer.add_string buf ",\"args\":";
  Buffer.add_string buf (args_json s.Sink.sp_args);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* The origin shifts all timestamps so traces start near ts=0 — keeps
   the numbers small and, with a deterministic test clock, stable. *)
let to_json ?origin spans =
  let origin =
    match origin with
    | Some o -> o
    | None ->
        List.fold_left
          (fun acc (s : Sink.span) -> Float.min acc s.Sink.sp_start)
          infinity spans
        |> fun m -> if Float.is_finite m then m else 0.0
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n  ";
      Buffer.add_string buf (event_json ~origin s))
    spans;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write ~path spans =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_json spans))
