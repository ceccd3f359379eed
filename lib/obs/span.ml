(** Lightweight span tracing over {!Sink} shards.

    A span is opened, runs a thunk, and is recorded on close (also on
    exception — [Fun.protect] — so a supervised task that raises still
    leaves its attempt span, which is how retry paths stay visible).
    Nesting is tracked with a per-domain stack, so parent/child edges
    are well-formed by construction: a span's parent is whatever span
    was open on the same domain when it started.

    Timestamps come from the configured {!Control.clock}; wall-clock
    never enters simulation state (see {!Clock}). *)

let with_ ?(cat = "app") ?(args = []) name f =
  if not (Control.enabled ()) then f ()
  else begin
    let clock = Control.clock () in
    let sh = Sink.shard () in
    let seq = Sink.next_seq sh in
    let parent =
      match sh.Sink.sh_stack with
      | [] -> None
      | fr :: _ -> Some fr.Sink.fr_seq
    in
    let frame =
      {
        Sink.fr_seq = seq;
        fr_name = name;
        fr_cat = cat;
        fr_start = Clock.now clock;
        fr_args = args;
      }
    in
    sh.Sink.sh_stack <- frame :: sh.Sink.sh_stack;
    Fun.protect
      ~finally:(fun () ->
        (* The domain's stack is LIFO by construction; the top frame is
           ours because [f] balanced its own pushes (Fun.protect). *)
        (match sh.Sink.sh_stack with
        | fr :: rest when fr.Sink.fr_seq = seq -> sh.Sink.sh_stack <- rest
        | _ -> ());
        let stop = Clock.now clock in
        sh.Sink.sh_spans <-
          {
            Sink.sp_name = name;
            sp_cat = cat;
            sp_domain = sh.Sink.sh_domain;
            sp_seq = seq;
            sp_parent = parent;
            sp_start = frame.Sink.fr_start;
            sp_dur = Float.max 0.0 (stop -. frame.Sink.fr_start);
            sp_instant = false;
            sp_args = args;
          }
          :: sh.Sink.sh_spans)
      f
  end

let instant ?(cat = "app") ?(args = []) name =
  if Control.enabled () then begin
    let clock = Control.clock () in
    let sh = Sink.shard () in
    let seq = Sink.next_seq sh in
    let parent =
      match sh.Sink.sh_stack with
      | [] -> None
      | fr :: _ -> Some fr.Sink.fr_seq
    in
    sh.Sink.sh_spans <-
      {
        Sink.sp_name = name;
        sp_cat = cat;
        sp_domain = sh.Sink.sh_domain;
        sp_seq = seq;
        sp_parent = parent;
        sp_start = Clock.now clock;
        sp_dur = 0.0;
        sp_instant = true;
        sp_args = args;
      }
      :: sh.Sink.sh_spans
  end

(* Total, deterministic order on merged spans: domain id, then the
   per-domain sequence stamp. *)
let collect () =
  Sink.shards ()
  |> List.concat_map (fun sh -> List.rev sh.Sink.sh_spans)
  |> List.sort (fun (a : Sink.span) (b : Sink.span) ->
         compare (a.Sink.sp_domain, a.Sink.sp_seq) (b.Sink.sp_domain, b.Sink.sp_seq))
