(** Fork-join parallel map over OCaml 5 domains (see the .mli for the
    determinism contract).

    One [Atomic] counter hands out element indices; each result lands
    in its own array slot, so no lock guards anything.  [Domain.join]
    orders every helper's slot writes before the caller reads them. *)

type t = int

(* The OCaml runtime degrades past ~128 domains; 64 is already beyond
   any machine we target. *)
let max_size = 64

let clamp_size n = Stdlib.min max_size (Stdlib.max 1 n)

let default_size () =
  let from_env =
    match Sys.getenv_opt "CCACHE_JOBS" with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | _ -> None)
  in
  match from_env with
  | Some n -> clamp_size n
  | None -> clamp_size (Domain.recommended_domain_count ())

let create ?size () =
  match size with Some n -> clamp_size n | None -> default_size ()

let size t = t

(* Occupancy buckets: widths are clamped to [max_size]. *)
let occupancy_bounds = [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]

(* Up to [n] helpers running [work]; a failed spawn stops there, and the
   helpers already running (with the caller) finish the map. *)
let rec spawn_helpers n work acc =
  if n <= 0 then acc
  else
    match Domain.spawn work with
    | d -> spawn_helpers (n - 1) work (d :: acc)
    | exception Failure _ -> acc

let pooled_map width ~f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let busy = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (* Guarded so the disabled path costs one atomic load; [obs] is
         latched across [f] so the busy counter stays balanced even if
         recording is toggled mid-element. *)
      let obs = Ccache_obs.Control.enabled () in
      if obs then begin
        let b = 1 + Atomic.fetch_and_add busy 1 in
        Ccache_obs.Metrics.observe ~bounds:occupancy_bounds "pool/occupancy"
          (float_of_int b);
        Ccache_obs.Metrics.incr "pool/tasks_run"
      end;
      results.(i) <-
        Some
          (match f input.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      if obs then Atomic.decr busy;
      work ()
    end
  in
  let helpers = spawn_helpers (Stdlib.min width n - 1) work [] in
  work ();
  List.iter Domain.join helpers;
  (* every element has run: re-raise the first error in input order *)
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
       results)

let map_list ?pool ~f xs =
  (* Counted on every path, so the counter agrees between --jobs 1 and
     --jobs N runs of the same sweep (its key is pinned by
     test/suite_golden). *)
  if Ccache_obs.Control.enabled () then
    Ccache_obs.Metrics.incr ~by:(List.length xs) "pool/map_blocks";
  match pool with
  | None -> List.map f xs
  | Some t ->
      pooled_map (Stdlib.min t (Domain.recommended_domain_count ())) ~f xs
