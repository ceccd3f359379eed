(** Parameter-sweep helpers for experiments and benches. *)

(** Cartesian product of two parameter lists. *)
let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(** Geometric range [start, start*factor, ...] not exceeding [stop]. *)
let geometric ~start ~stop ~factor =
  if start <= 0 || stop < start then invalid_arg "Sweep.geometric: bad range";
  if (not (Float.is_finite factor)) || factor <= 1.0 then
    invalid_arg "Sweep.geometric: factor must be finite and exceed 1";
  (* max_int + 1, exactly: a scaled point at or past it has no int value *)
  let int_limit = Float.ldexp 1.0 (Sys.int_size - 1) in
  let rec go acc v =
    let acc = v :: acc in
    let scaled = Float.round (float_of_int v *. factor) in
    (* stopping at [v = stop] also keeps [v + 1] from wrapping *)
    if v = stop || scaled >= int_limit then List.rev acc
    else
      let next = Stdlib.max (v + 1) (int_of_float scaled) in
      if next > stop then List.rev acc else go acc next
  in
  go [] start

(* One span per sweep cell, labelled by input position — [f] itself is
   opaque, so the position is the only stable identity a cell has. *)
let cell_span i f =
  Ccache_obs.Span.with_ ~cat:"sweep"
    ~args:[ ("cell", Ccache_obs.Sink.Int i) ]
    "sweep/cell" f

(** Map with the sweep point available for labelling.  With [?pool] the
    cells are evaluated on the pool's worker domains; results keep the
    input order either way. *)
let run ?pool points ~f =
  let cells = List.mapi (fun i p -> (i, p)) points in
  Ccache_util.Domain_pool.map_list ?pool cells ~f:(fun (i, p) ->
      (p, cell_span i (fun () -> f p)))

(* ------------------------------------------------------------------ *)
(* Engine-cell sweeps                                                  *)
(* ------------------------------------------------------------------ *)

type cell = {
  policy : Policy.t;
  k : int;
  costs : Ccache_cost.Cost_function.t array;
  flush : bool;
  trace : Ccache_trace.Trace.t;
}

let cell ?(flush = false) ~k ~costs policy trace =
  { policy; k; costs; flush; trace }

(* Split a flat row-major result list back into rows of [width] — the
   inverse of building a grid's cells with [concat_map].  Total length
   must be a multiple of [width]. *)
let rows ~width xs =
  if width <= 0 then invalid_arg "Sweep.rows: width must be positive";
  let rec go acc cur n = function
    | [] ->
        if n <> 0 then invalid_arg "Sweep.rows: ragged input";
        List.rev acc
    | x :: rest ->
        if n + 1 = width then go (List.rev (x :: cur) :: acc) [] 0 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

(* The trace index is the one piece of per-trace work that cells can
   share: an offline k-sweep would otherwise rebuild it for every k.
   Sharing is by physical identity — value equality could conflate
   distinct generator outputs at an O(T) compare per pair and buys
   nothing, because sharing only ever arises from callers hoisting one
   trace across cells.  Online cells get no index, exactly as a solo
   [Engine.run] would build none. *)
let run_cells cells =
  let indices = ref [] in
  let index_of trace =
    match List.assq trace !indices with
    | index -> index
    | exception Not_found ->
        let index = Ccache_trace.Trace.Index.build trace in
        indices := (trace, index) :: !indices;
        index
  in
  List.map
    (fun c ->
      let index =
        if Policy.needs_future c.policy then Some (index_of c.trace) else None
      in
      Engine.run ~flush:c.flush ?index ~k:c.k ~costs:c.costs c.policy c.trace)
    cells

(** Supervised sweep: deadlines, retry, quarantine, checkpoint replay.
    See [Ccache_util.Supervisor] for the failure model. *)
let run_supervised ?pool ?policy ?fault ?checkpoint ?codec ?on_event ~task_id
    points ~f =
  let module S = Ccache_util.Supervisor in
  let tasks =
    List.map (fun p -> { S.id = task_id p; run = (fun () -> f p) }) points
  in
  let outcomes = S.run ?pool ?policy ?fault ?checkpoint ?codec ?on_event tasks in
  List.combine points outcomes
