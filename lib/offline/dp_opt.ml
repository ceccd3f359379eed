(** Exact offline optimum by dynamic programming (tiny instances only).

    The convex objective sum_i f_i(total misses_i) is not additive per
    step, so the DP state is (cache contents) x (Pareto front of
    per-user miss vectors): a miss vector is kept only if no other
    vector reaching the same cache set weakly dominates it.  Since all
    f_i are increasing, some Pareto-optimal vector attains the optimum.

    Cache sets are bitmasks over the trace's distinct pages, so the
    instance must touch at most 62 distinct pages; practical limits are
    roughly |pages| <= 16, k <= 6, T <= 40 (the test suite stays well
    inside).  This is the ground truth that certifies the heuristic
    offline upper bounds and the dual lower bound on small instances. *)

open Ccache_trace
module Cf = Ccache_cost.Cost_function

exception Too_large of string

type result = {
  cost : float;
  misses_per_user : int array;  (** a cost-optimal miss vector *)
  states_explored : int;
}

(* Pareto front maintenance: list of int arrays, none dominating another. *)
let dominates a b =
  let n = Array.length a in
  let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

let insert_front front v =
  if List.exists (fun w -> dominates w v) front then front
  else v :: List.filter (fun w -> not (dominates v w)) front

(** Exact optimal offline cost for [trace] with cache size
    [cache_size].  Raises {!Too_large} when the distinct-page count
    exceeds 62 or the state space exceeds [max_states] front entries
    summed over a step.

    @param pinned pages that may never be evicted once cached (used to
      model the paper's infinite-cost flush user: its pages must stay);
      states with no legal victim are simply dropped. *)
let max_states = 2_000_000

let solve ?(pinned = fun (_ : Page.t) -> false) ~cache_size ~costs trace =
  if cache_size <= 0 then invalid_arg "Dp_opt.solve: cache_size must be positive";
  let n_users = Trace.n_users trace in
  if Array.length costs <> n_users then invalid_arg "Dp_opt.solve: costs mismatch";
  let pages = Array.of_list (Trace.distinct_pages trace) in
  let n_pages = Array.length pages in
  if n_pages > 62 then
    raise (Too_large (Printf.sprintf "%d distinct pages > 62" n_pages));
  let id_of : int Page.Tbl.t = Page.Tbl.create 64 in
  Array.iteri (fun i p -> Page.Tbl.add id_of p i) pages;
  let user_of = Array.map Page.user pages in
  let popcount mask =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go mask 0
  in
  (* states: cache bitmask -> Pareto front of miss vectors *)
  let states : (int, int array list) Hashtbl.t = Hashtbl.create 1024 in
  Hashtbl.add states 0 [ Array.make n_users 0 ];
  let explored = ref 0 in
  let n = Trace.length trace in
  for pos = 0 to n - 1 do
    let p = Trace.request trace pos in
    let pid = Page.Tbl.find id_of p in
    let pbit = 1 lsl pid in
    let next : (int, int array list) Hashtbl.t = Hashtbl.create (Hashtbl.length states * 2) in
    let add mask v =
      let front = Option.value (Hashtbl.find_opt next mask) ~default:[] in
      let front' = insert_front front v in
      Hashtbl.replace next mask front'
    in
    Hashtbl.iter
      (fun mask front ->
        List.iter
          (fun v ->
            incr explored;
            if !explored > max_states then
              raise (Too_large "state budget exceeded");
            if mask land pbit <> 0 then add mask v
            else begin
              let v' = Array.copy v in
              v'.(user_of.(pid)) <- v'.(user_of.(pid)) + 1;
              if popcount mask < cache_size then add (mask lor pbit) v'
              else
                (* try every non-pinned victim *)
                for q = 0 to n_pages - 1 do
                  if mask land (1 lsl q) <> 0 && not (pinned pages.(q)) then
                    add ((mask lxor (1 lsl q)) lor pbit) (Array.copy v')
                done
            end)
          front)
      states;
    Hashtbl.reset states;
    Hashtbl.iter (fun k v -> Hashtbl.add states k v) next
  done;
  (* best final cost over all states and fronts *)
  let best = ref infinity and best_v = ref None in
  Hashtbl.iter
    (fun _ front ->
      List.iter
        (fun v ->
          let c = Cf.total costs v in
          if c < !best then begin
            best := c;
            best_v := Some v
          end)
        front)
    states;
  match !best_v with
  | None -> invalid_arg "Dp_opt.solve: empty trace state space"
  | Some v -> { cost = !best; misses_per_user = v; states_explored = !explored }
