(** The convex program (CP) / (CP-h) of paper Figures 1 and 4.

    Variables: x(p,j) in [0,1] for every page p and interval j (between
    the page's j-th and (j+1)-th requests), meaning "p is evicted in
    that interval".  Constraints, one per time t:

      sum_{p in B(t) \ {p_t}} x(p, j(p,t)) >= |B(t)| - cache_size

    Objective: sum_i f_i( sum of user i's variables ).

    The structural fact this module exploits: variable (p,j) appears in
    exactly the constraints for t strictly between t(p,j) and t(p,j+1)
    (the requested page p_t is excluded from its own constraint, and
    p's interval at any such t is j).  So membership never needs to be
    materialised — interval endpoints are enough both to accumulate
    per-variable dual mass c(p,j) = sum of y_t over the span (via
    prefix sums) and to compute per-constraint activity (via a
    difference array).

    Built from a flushed trace (see {!of_trace} [~flush]) the program's
    optimum lower-bounds the optimal offline cost under the
    misses = evictions accounting; flush-user variables are pinned to 0
    (the paper gives the dummy user infinite cost). *)

open Ccache_trace
module Cf = Ccache_cost.Cost_function

type var = {
  page : Page.t;
  j : int;  (** 1-based interval index *)
  start_pos : int;  (** t(p,j): position of the j-th request *)
  end_pos : int;  (** t(p,j+1), or the horizon if there is none *)
}

type t = {
  trace : Trace.t;  (** possibly flushed *)
  real_users : int;
  cache_size : int;  (** k, or h for (CP-h) *)
  costs : Cf.t array;  (** indexed by real user *)
  vars : var array;
  vars_of_user : int list array;  (** variable ids per real user *)
  rhs : int array;  (** rhs.(t) = |B(t)| - cache_size (may be <= 0) *)
  horizon : int;
}

let n_vars t = Array.length t.vars
let horizon t = t.horizon

(** Build (CP) (or (CP-h) via [~cache_size]) for [trace].

    @param flush model the paper's terminal flush: [cache_size] extra
      requests by a dummy user whose variables are pinned to zero.
      The flush width MUST equal the program's cache size: with pinned
      dummies a wider flush makes the program infeasible (the j-th
      dummy constraint needs j <= cache_size), which would render the
      dual unbounded — not a valid lower bound. *)
let of_trace ?(flush = true) ~cache_size ~costs trace =
  if cache_size <= 0 then invalid_arg "Formulation.of_trace: cache_size > 0";
  let real_users = Trace.n_users trace in
  if Array.length costs <> real_users then
    invalid_arg "Formulation.of_trace: costs/users mismatch";
  let full = if flush then Trace.with_flush ~k:cache_size trace else trace in
  let index = Trace.Index.build full in
  let n = Trace.length full in
  let vars = ref [] in
  let vars_of_user = Array.make real_users [] in
  let count = ref 0 in
  for pos = 0 to n - 1 do
    let p = Trace.request full pos in
    if Page.user p < real_users then begin
      let next = Trace.Index.next_use index pos in
      let v =
        {
          page = p;
          j = Trace.Index.interval_index index pos;
          start_pos = pos;
          end_pos = (if next = Int.max_int then n else next);
        }
      in
      vars := v :: !vars;
      vars_of_user.(Page.user p) <- !count :: vars_of_user.(Page.user p);
      incr count
    end
  done;
  let rhs =
    Array.init n (fun pos -> Trace.Index.distinct_upto index pos - cache_size)
  in
  {
    trace = full;
    real_users;
    cache_size;
    costs;
    vars = Array.of_list (List.rev !vars);
    vars_of_user = Array.map List.rev vars_of_user;
    rhs;
    horizon = n;
  }

(** Per-variable dual mass c_v = sum of y_t over t in
    (start_pos, end_pos), given the prefix sums of y
    ([prefix.(t)] = sum over positions < t). *)
let var_costs t ~y_prefix =
  Array.map
    (fun v ->
      if v.end_pos <= v.start_pos + 1 then 0.0
      else y_prefix.(v.end_pos) -. y_prefix.(v.start_pos + 1))
    t.vars

(** Per-constraint activity sum_{members} x_v for a primal vector [x],
    computed with a difference array in O(V + T). *)
let constraint_activity t x =
  if Array.length x <> Array.length t.vars then
    invalid_arg "Formulation.constraint_activity: dimension mismatch";
  let diff = Array.make (t.horizon + 1) 0.0 in
  Array.iteri
    (fun vi v ->
      (* member of constraints t in (start_pos, end_pos) exclusive *)
      let lo = v.start_pos + 1 and hi = v.end_pos in
      if lo < hi then begin
        diff.(lo) <- diff.(lo) +. x.(vi);
        diff.(hi) <- diff.(hi) -. x.(vi)
      end)
    t.vars;
  let activity = Array.make t.horizon 0.0 in
  let acc = ref 0.0 in
  for pos = 0 to t.horizon - 1 do
    acc := !acc +. diff.(pos);
    activity.(pos) <- !acc
  done;
  activity

(** Objective sum_i f_i(sum of user i's variables). *)
let objective t x =
  if Array.length x <> Array.length t.vars then
    invalid_arg "Formulation.objective: dimension mismatch";
  let total = ref 0.0 in
  Array.iteri
    (fun u ids ->
      let s = List.fold_left (fun acc vi -> acc +. x.(vi)) 0.0 ids in
      total := !total +. Cf.eval t.costs.(u) s)
    t.vars_of_user;
  !total

type feasibility = {
  feasible : bool;
  worst_violation : float;  (** max over t of rhs_t - activity_t, if > 0 *)
  violated_constraints : int;
  box_violations : int;
}

(** Check primal feasibility of [x] (box + covering constraints). *)
let check_feasible ?(tol = 1e-9) t x =
  let activity = constraint_activity t x in
  let worst = ref 0.0 and violated = ref 0 in
  Array.iteri
    (fun pos rhs ->
      let gap = float_of_int rhs -. activity.(pos) in
      if gap > tol then begin
        incr violated;
        if gap > !worst then worst := gap
      end)
    t.rhs;
  let box = ref 0 in
  Array.iter (fun v -> if v < -.tol || v > 1.0 +. tol then incr box) x;
  {
    feasible = !violated = 0 && !box = 0;
    worst_violation = !worst;
    violated_constraints = !violated;
    box_violations = !box;
  }

(** The integral solution induced by an actual schedule: given the
    per-position eviction log (position of each eviction and the page
    evicted), set x(p, j(p, evict-time)) = 1.  [evictions] is a list of
    (position, page).  Used to embed engine runs into the program. *)
let solution_of_evictions t evictions =
  (* A variable (p,j) spans positions [start_pos, end_pos); an eviction
     of p at position pos falls in the unique variable with
     start_pos <= pos < end_pos.  Look it up by binary search over p's
     variables (they are in increasing start_pos order). *)
  let vars_of_page : (Page.t, int list) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun vi v ->
      let prev = Option.value (Hashtbl.find_opt vars_of_page v.page) ~default:[] in
      Hashtbl.replace vars_of_page v.page (vi :: prev))
    t.vars;
  let sorted_vars_of_page : (Page.t, int array) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun page ids ->
      Hashtbl.replace sorted_vars_of_page page (Array.of_list (List.rev ids)))
    vars_of_page;
  let x = Array.make (Array.length t.vars) 0.0 in
  List.iter
    (fun (pos, page) ->
      if Page.user page < t.real_users then
        match Hashtbl.find_opt sorted_vars_of_page page with
        | None -> invalid_arg "Formulation.solution_of_evictions: unknown page"
        | Some ids ->
            (* greatest id with start_pos <= pos *)
            let lo = ref 0 and hi = ref (Array.length ids - 1) in
            if t.vars.(ids.(0)).start_pos > pos then
              invalid_arg "Formulation.solution_of_evictions: eviction before first request";
            while !lo < !hi do
              let mid = (!lo + !hi + 1) / 2 in
              if t.vars.(ids.(mid)).start_pos <= pos then lo := mid else hi := mid - 1
            done;
            x.(ids.(!lo)) <- 1.0)
    evictions;
  x
