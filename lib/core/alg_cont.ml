(** ALG-CONT (paper Figure 2): the continuous primal-dual algorithm,
    instrumented with its dual variables.

    The eviction decisions are exactly those of ALG-DISCRETE: the run
    is an engine replay of a {!Budget_state} policy.  What this runner
    adds is the bookkeeping the correctness proof reads:

    - [y.(t)]   — the amount the dual variable [y_t] increases at step
      [t] (zero unless an eviction happens; otherwise the victim's
      budget, i.e. the point where the first gradient condition
      becomes tight);
    - one {!interval} record per (page, request-interval), carrying the
      primal variable [x(p,j)] (true iff the page was evicted between
      its j-th and (j+1)-th requests), the eviction position, and the
      owner's eviction count [m(i(p), t-hat)] at that moment.

    The [z(p,j)] duals need no explicit tracking: [z] grows exactly in
    lockstep with [y] while the page is outside the cache within its
    interval, so [z(p,j) = sum of y over (evict_pos, end_pos)] — the
    checker in {!Invariants} reconstructs them from [y] prefix sums
    (and this is itself one of the checked identities). *)

module Cf = Ccache_cost.Cost_function
module Policy = Ccache_sim.Policy
open Ccache_trace

type interval = {
  page : Page.t;
  j : int;  (** 1-based interval index: after the page's j-th request *)
  start_pos : int;  (** position of the j-th request, i.e. t(p,j) *)
  mutable end_pos : int option;  (** position of the (j+1)-th request *)
  mutable x : bool;  (** primal variable: evicted in this interval *)
  mutable evict_pos : int option;
  mutable m_at_evict : int option;
      (** m(i(p), t-hat): owner's eviction count right after this
          eviction — the argument of f' in invariant (2b) *)
}

type run = {
  trace : Trace.t;
  k : int;
  costs : Cf.t array;
  mode : Cf.derivative_mode;
  y : float array;  (** y.(t) = dy at step t *)
  intervals : interval list;  (** all intervals, in creation order *)
  final_m : int array;  (** m(i,T) per user *)
  misses_per_user : int array;
  result_cache : Page.t list;  (** cache contents at the end *)
}

(** Replay [trace] with cache size [k], recording duals.  The engine
    runs the replay, the terminal flush included; the policy it drives
    is Figure 3 on a {!Budget_state} whose handlers also keep the
    intervals: a hit or insertion closes the page's previous interval
    and opens the next, and an eviction records [y], [x] and the
    eviction metadata on the victim's open interval.

    @param flush append the paper's terminal dummy-user flush so every
           page's last interval ends with an eviction (default false;
           the invariant checker handles both accountings). *)
let run ?(mode = Cf.Discrete) ?(flush = false) ~k ~costs trace =
  if k <= 0 then invalid_arg "Alg_cont.run: k must be positive";
  let n_users = Trace.n_users trace in
  if Array.length costs <> n_users then
    invalid_arg "Alg_cont.run: costs/users mismatch";
  let st = Budget_state.create ~costs ~mode ~n_users in
  let y = Array.make (Trace.length trace + if flush then k else 0) 0.0 in
  let current : interval Page.Tbl.t = Page.Tbl.create 256 in
  let all = ref [] in
  let open_interval ~pos page =
    let j =
      match Page.Tbl.find_opt current page with
      | Some iv ->
          iv.end_pos <- Some pos;
          iv.j + 1
      | None -> 1
    in
    let iv =
      { page; j; start_pos = pos; end_pos = None; x = false;
        evict_pos = None; m_at_evict = None }
    in
    Page.Tbl.replace current page iv;
    all := iv :: !all;
    Budget_state.touch st page
  in
  let on_evict ~pos victim =
    (* cached pages always have an open interval *)
    let iv = Page.Tbl.find current victim in
    y.(pos) <- Budget_state.evict st victim;
    iv.x <- true;
    iv.evict_pos <- Some pos;
    iv.m_at_evict <- Some (Budget_state.evictions st (Page.user victim))
  in
  let policy =
    Policy.make ~name:"alg-cont" (fun _ ->
        {
          Policy.on_hit = open_interval;
          wants_evict = Policy.never_evict_early;
          choose_victim =
            (fun ~pos:_ ~incoming:_ -> fst (Budget_state.min_budget st));
          on_insert = open_interval;
          on_evict;
        })
  in
  let r = Ccache_sim.Engine.replay ~flush ~k ~costs policy trace in
  {
    trace;
    k;
    costs;
    mode;
    y;
    intervals = List.rev !all;
    final_m = Array.init n_users (Budget_state.evictions st);
    misses_per_user = r.Ccache_sim.Engine.misses_per_user;
    result_cache = r.Ccache_sim.Engine.final_cache;
  }

(** Prefix sums of [y]: [prefix.(t)] = sum of y over positions [0..t-1],
    so a sum over positions [a..b] inclusive is
    [prefix.(b+1) -. prefix.(a)]. *)
let y_prefix run =
  let n = Array.length run.y in
  let prefix = Array.make (n + 1) 0.0 in
  for t = 0 to n - 1 do
    prefix.(t + 1) <- prefix.(t) +. run.y.(t)
  done;
  prefix

(** Sum of y over the open-open range (a, b) in positions, i.e.
    positions a+1 .. b-1 — the paper's
    [sum_{t = t(p,j)+1}^{t(p,j+1)-1} y_t]. *)
let y_between prefix ~after ~before =
  if before <= after + 1 then 0.0 else prefix.(before) -. prefix.(after + 1)

(** z(p,j) reconstructed from the closed form: y-mass while the page
    sat outside the cache within its interval. *)
let z_of run prefix iv =
  match iv.evict_pos with
  | None -> 0.0
  | Some ev ->
      let end_pos = Option.value iv.end_pos ~default:(Array.length run.y) in
      y_between prefix ~after:ev ~before:end_pos

(** Total cost of the run: [sum_i f_i(misses_i)] over real users. *)
let total_cost run = Cf.total run.costs run.misses_per_user
