(* Tests for ccache_cp: the (CP) formulation, Lagrangian inner
   minimisation, dual solver soundness (with a KKT-residual oracle) and
   rounding. *)

open Ccache_trace
module F = Ccache_cp.Formulation
module L = Ccache_cp.Lagrangian
module DS = Ccache_cp.Dual_solver
module R = Ccache_cp.Rounding
module Cf = Ccache_cost.Cost_function
module Engine = Ccache_sim.Engine
module Prng = Ccache_util.Prng

(* KKT residuals for a primal/dual pair of (CP) (paper Section 2.2):
   how far a pair (x, y) — with z reconstructed as the positive part
   needed by the gradient condition — is from satisfying the optimality
   conditions.  The oracle of the KKT test below, on a tiny instance
   where the dual solver should drive the residuals near zero. *)
module Kkt = struct
  type residuals = {
    primal_infeasibility : float;
        (** max over t of max(0, rhs_t - activity_t) *)
    box_infeasibility : float;  (** max distance of any x_v outside [0,1] *)
    dual_infeasibility : float;  (** max over t of max(0, -y_t) *)
    stationarity : float;
        (** max over v of |min-form gradient residual|: for each v the
            gradient f'_i(S_i) - c_v + z_v - mu_v must vanish with
            z_v = max(0, c_v - f'(S_i)) (active only when x_v = 1 is
            optimal) and mu_v = max(0, f'(S_i) - c_v); the residual
            reported is the complementarity mismatch below *)
    complementarity : float;
        (** max over v of
            x_v * max(0, f'(S_i) - c_v)   (x > 0 needs gradient <= 0
                                            before z lifts it to 0)
            and (1 - x_v) * max(0, c_v - f'(S_i))
                                          (x < 1 needs gradient >= 0) *)
    constraint_complementarity : float;
        (** max over t of y_t * (activity_t - rhs_t) *)
  }

  let worst r =
    List.fold_left Float.max 0.0
      [
        r.primal_infeasibility;
        r.box_infeasibility;
        r.dual_infeasibility;
        r.complementarity;
        r.constraint_complementarity;
      ]

  let compute (cp : F.t) ~x ~y =
    let horizon = cp.F.horizon in
    if Array.length y <> horizon then invalid_arg "Kkt.compute: y length";
    if Array.length x <> F.n_vars cp then invalid_arg "Kkt.compute: x length";
    let y_prefix = Array.make (horizon + 1) 0.0 in
    for t = 0 to horizon - 1 do
      y_prefix.(t + 1) <- y_prefix.(t) +. y.(t)
    done;
    let c = F.var_costs cp ~y_prefix in
    let activity = F.constraint_activity cp x in
    let primal = ref 0.0 and ccomp = ref 0.0 in
    Array.iteri
      (fun t rhs ->
        let gap = float_of_int rhs -. activity.(t) in
        if gap > !primal then primal := gap;
        let slackness = y.(t) *. Float.max 0.0 (activity.(t) -. float_of_int rhs) in
        if slackness > !ccomp then ccomp := slackness)
      cp.F.rhs;
    let box = ref 0.0 and dual = ref 0.0 in
    Array.iter
      (fun v ->
        box := Float.max !box (Float.max (-.v) (v -. 1.0)))
      x;
    Array.iter (fun v -> dual := Float.max !dual (-.v)) y;
    (* per-user sums *)
    let totals = Array.make cp.F.real_users 0.0 in
    Array.iteri
      (fun u ids ->
        totals.(u) <- List.fold_left (fun acc vi -> acc +. x.(vi)) 0.0 ids)
      cp.F.vars_of_user;
    let comp = ref 0.0 and stat = ref 0.0 in
    Array.iteri
      (fun u ids ->
        let fprime = Cf.deriv cp.F.costs.(u) totals.(u) in
        List.iter
          (fun vi ->
            let grad = fprime -. c.(vi) in
            (* x_v > 0 requires grad <= 0 (z then closes the gap only at
               x_v = 1); x_v < 1 requires grad >= 0 to be optimal at the
               boundary *)
            let r1 = x.(vi) *. Float.max 0.0 grad in
            let r2 = (1.0 -. x.(vi)) *. Float.max 0.0 (-.grad) in
            comp := Float.max !comp (Float.max r1 r2);
            stat := Float.max !stat (Float.min r1 r2))
          ids)
      cp.F.vars_of_user;
    {
      primal_infeasibility = !primal;
      box_infeasibility = !box;
      dual_infeasibility = !dual;
      stationarity = !stat;
      complementarity = !comp;
      constraint_complementarity = !ccomp;
    }
end

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let p u i = Page.make ~user:u ~id:i

let mono_costs n = Array.init n (fun _ -> Cf.monomial ~beta:2.0 ())

(* a b a c b a with users a,c -> 0, b -> 1 *)
let sample_trace () =
  Trace.of_list ~n_users:2 [ p 0 0; p 1 0; p 0 0; p 0 1; p 1 0; p 0 0 ]

(* ------------------------------------------------------------------ *)
(* Formulation                                                         *)
(* ------------------------------------------------------------------ *)

let test_formulation_vars () =
  let t = sample_trace () in
  let cp = F.of_trace ~flush:false ~cache_size:2 ~costs:(mono_costs 2) t in
  (* one variable per request of a real user: 6 *)
  checki "vars" 6 (F.n_vars cp);
  checki "horizon" 6 (F.horizon cp);
  (* user 0 owns 4 of them (a,a,c,a) *)
  checki "user0 vars" 4 (List.length cp.F.vars_of_user.(0));
  checki "user1 vars" 2 (List.length cp.F.vars_of_user.(1))

let test_formulation_flush_pins_dummy () =
  let t = sample_trace () in
  let cp = F.of_trace ~flush:true ~cache_size:2 ~costs:(mono_costs 2) t in
  (* flush adds 2 dummy requests but no variables for them *)
  checki "horizon includes flush" 8 (F.horizon cp);
  checki "still 6 vars" 6 (F.n_vars cp);
  (* rhs grows with the dummy pages entering B(t) *)
  checki "final rhs" (5 - 2) cp.F.rhs.(7)

let test_formulation_rhs () =
  let t = sample_trace () in
  let cp = F.of_trace ~flush:false ~cache_size:2 ~costs:(mono_costs 2) t in
  (* distinct counts 1 2 2 3 3 3 minus k=2 *)
  checkb "rhs" true (cp.F.rhs = [| -1; 0; 0; 1; 1; 1 |])

let test_constraint_activity_brute_force () =
  let t = sample_trace () in
  let cp = F.of_trace ~flush:false ~cache_size:2 ~costs:(mono_costs 2) t in
  let rng = Prng.create ~seed:1 in
  let x = Array.init (F.n_vars cp) (fun _ -> Prng.float rng) in
  let fast = F.constraint_activity cp x in
  (* brute force: for each t sum x_v over vars whose open span contains t *)
  Array.iteri
    (fun pos fast_v ->
      let slow = ref 0.0 in
      Array.iteri
        (fun vi v ->
          if pos > v.F.start_pos && pos < v.F.end_pos then slow := !slow +. x.(vi))
        cp.F.vars;
      checkb (Printf.sprintf "activity at %d" pos) true
        (Float.abs (fast_v -. !slow) < 1e-9))
    fast

let test_var_costs_brute_force () =
  let t = sample_trace () in
  let cp = F.of_trace ~flush:false ~cache_size:2 ~costs:(mono_costs 2) t in
  let y = [| 0.5; 0.0; 1.0; 2.0; 0.0; 0.25 |] in
  let y_prefix = Array.make 7 0.0 in
  for i = 0 to 5 do
    y_prefix.(i + 1) <- y_prefix.(i) +. y.(i)
  done;
  let c = F.var_costs cp ~y_prefix in
  Array.iteri
    (fun vi v ->
      let slow = ref 0.0 in
      for pos = v.F.start_pos + 1 to v.F.end_pos - 1 do
        slow := !slow +. y.(pos)
      done;
      checkb (Printf.sprintf "c(%d)" vi) true (Float.abs (c.(vi) -. !slow) < 1e-9))
    cp.F.vars

let test_objective () =
  let t = sample_trace () in
  let cp = F.of_trace ~flush:false ~cache_size:2 ~costs:(mono_costs 2) t in
  let x = Array.make (F.n_vars cp) 1.0 in
  (* user0: 4 vars -> 16; user1: 2 vars -> 4 *)
  checkf "objective" 20.0 (F.objective cp x)

let test_engine_run_is_feasible () =
  (* the paper's observation: every algorithm induces a feasible ICP
     solution.  Run LRU with flush, embed its evictions, check. *)
  let t =
    Workloads.generate ~seed:3 ~length:200
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:12 ~skew:0.8)
  in
  let costs = mono_costs 2 in
  let k = 4 in
  let cp = F.of_trace ~flush:true ~cache_size:k ~costs t in
  let _, log = Engine.run_logged ~flush:true ~k ~costs Ccache_policies.Lru.policy t in
  let evictions =
    List.filter_map
      (function Engine.Miss_evict { pos; victim; _ } -> Some (pos, victim) | _ -> None)
      log
  in
  let x = F.solution_of_evictions cp evictions in
  let feas = F.check_feasible cp x in
  checkb "feasible" true feas.F.feasible;
  (* objective equals the eviction-accounting cost of the run *)
  let by_user = Array.make 2 0 in
  List.iter
    (fun (_, v) ->
      if Page.user v < 2 then by_user.(Page.user v) <- by_user.(Page.user v) + 1)
    evictions;
  let expected =
    Cf.eval costs.(0) (float_of_int by_user.(0))
    +. Cf.eval costs.(1) (float_of_int by_user.(1))
  in
  checkf "objective = eviction cost" expected (F.objective cp x)

let test_infeasible_detected () =
  let t = sample_trace () in
  let cp = F.of_trace ~flush:false ~cache_size:2 ~costs:(mono_costs 2) t in
  let x = Array.make (F.n_vars cp) 0.0 in
  (* all-zero violates the rhs=1 constraints at t=3,4,5 *)
  let feas = F.check_feasible cp x in
  checkb "infeasible" false feas.F.feasible;
  checki "three violated" 3 feas.F.violated_constraints;
  (* box violations *)
  let x2 = Array.make (F.n_vars cp) 2.0 in
  checkb "box flagged" true ((F.check_feasible cp x2).F.box_violations > 0)

(* ------------------------------------------------------------------ *)
(* Lagrangian inner minimisation                                       *)
(* ------------------------------------------------------------------ *)

let test_minimize_user_brute_force () =
  (* compare against a dense grid search for several cost shapes *)
  let cases =
    [
      (Cf.monomial ~beta:2.0 (), [ (0, 3.0); (1, 1.0); (2, 5.0) ]);
      (Cf.linear ~slope:2.0 (), [ (0, 1.0); (1, 3.0); (2, 0.5); (3, 2.0) ]);
      (Cf.monomial ~beta:1.5 (), [ (0, 0.0); (1, 0.0) ]);
      (Ccache_cost.Sla.hinge ~tolerance:1.0 ~penalty_rate:4.0, [ (0, 2.0); (1, 6.0) ]);
    ]
  in
  List.iter
    (fun (f, ids_costs) ->
      let sol = L.minimize_user f ids_costs in
      (* grid search on s with the same greedy C(s) *)
      let sorted = List.sort (fun (_, a) (_, b) -> compare b a) ids_costs in
      let n = List.length sorted in
      let c_of s =
        let rec go lst s acc =
          match lst with
          | [] -> acc
          | (_, c) :: rest ->
              if s <= 0.0 then acc
              else
                let take = Float.min 1.0 s in
                go rest (s -. take) (acc +. (c *. take))
        in
        go sorted s 0.0
      in
      let best = ref 0.0 in
      let steps = 2000 in
      for i = 0 to steps do
        let s = float_of_int n *. float_of_int i /. float_of_int steps in
        let v = Cf.eval f s -. c_of s in
        if v < !best then best := v
      done;
      checkb
        (Printf.sprintf "%s inner min matches grid (%g vs %g)" (Cf.name f)
           sol.L.value !best)
        true
        (sol.L.value <= !best +. 1e-6
        && sol.L.value >= !best -. 1e-3 (* grid is coarse *)))
    cases

let test_minimize_user_solution_consistent () =
  let f = Cf.monomial ~beta:2.0 () in
  let sol = L.minimize_user f [ (7, 3.0); (9, 1.0) ] in
  (* x masses sum to the reported total and respect [0,1] *)
  let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 sol.L.x in
  checkb "masses sum to total" true (Float.abs (total -. sol.L.total) < 1e-9);
  List.iter (fun (_, m) -> checkb "mass in box" true (m >= 0.0 && m <= 1.0)) sol.L.x;
  (* the largest-c variable is filled first *)
  match sol.L.x with
  | (first, _) :: _ -> checki "fills largest c first" 7 first
  | [] -> ()

(* weak duality: g(y) <= objective of any feasible x, for random y *)
let weak_duality =
  QCheck.Test.make ~name:"weak duality on random y" ~count:30
    QCheck.(pair small_nat (list_of_size (Gen.return 10) (float_range 0.0 2.0)))
    (fun (seed, _) ->
      let t =
        Workloads.generate ~seed:(seed + 2) ~length:60
          (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:6 ~skew:0.6)
      in
      let costs = mono_costs 2 in
      let k = 3 in
      let cp = F.of_trace ~flush:true ~cache_size:k ~costs t in
      let rng = Prng.create ~seed:(seed * 3 + 1) in
      let y =
        Array.init (F.horizon cp) (fun i ->
            if cp.F.rhs.(i) > 0 && Prng.bool rng then Prng.float rng else 0.0)
      in
      let dual = L.eval cp ~y in
      (* feasible x: the LRU run's integral solution *)
      let _, log = Engine.run_logged ~flush:true ~k ~costs Ccache_policies.Lru.policy t in
      let evs =
        List.filter_map
          (function Engine.Miss_evict { pos; victim; _ } -> Some (pos, victim) | _ -> None)
          log
      in
      let x = F.solution_of_evictions cp evs in
      (F.check_feasible cp x).F.feasible
      && dual.L.value <= F.objective cp x +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Dual solver                                                         *)
(* ------------------------------------------------------------------ *)

let test_dual_solver_improves_and_sound () =
  let t =
    Workloads.generate ~seed:8 ~length:80
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:6 ~skew:0.8)
  in
  let costs = mono_costs 2 in
  let k = 3 in
  let cp = F.of_trace ~flush:true ~cache_size:k ~costs t in
  let sol = DS.solve ~options:{ DS.default_options with iterations = 150 } cp in
  checkb "bound non-negative" true (sol.DS.bound >= 0.0);
  checkb "bound positive (trace forces misses)" true (sol.DS.bound > 0.0);
  (* sound vs exact DP on the pinned flushed instance *)
  let flushed = Trace.with_flush ~k t in
  let dp =
    Ccache_offline.Dp_opt.solve
      ~pinned:(fun q -> Page.user q >= 2)
      ~cache_size:k
      ~costs:(Array.append costs [| Cf.linear ~slope:0.0 () |])
      flushed
  in
  checkb "dual <= DP OPT" true (sol.DS.bound <= dp.Ccache_offline.Dp_opt.cost +. 1e-6);
  (* ascent achieved something: better than the all-zero dual *)
  let zero = L.eval cp ~y:(Array.make (F.horizon cp) 0.0) in
  checkb "better than trivial" true (sol.DS.bound >= zero.L.value);
  checkb "history recorded" true (List.length sol.DS.history > 1)

let test_bicriteria_dual_bound () =
  (* (CP-h): the dual bound with a smaller offline cache h must be at
     least the k-cache bound (fewer slots -> more forced evictions) and
     still below the h-cache best-of *)
  let t =
    Workloads.generate ~seed:12 ~length:70
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:6 ~skew:0.7)
  in
  let costs = mono_costs 2 in
  let k = 4 and h = 2 in
  let opts = { DS.default_options with iterations = 120 } in
  let lb_k = DS.lower_bound ~options:opts ~k ~costs t in
  let lb_h = DS.lower_bound ~options:opts ~cache_size:h ~k ~costs t in
  let off_h =
    Ccache_offline.Best_of.compute ~local_search_rounds:0 ~cache_size:h ~costs t
  in
  checkb "h-bound >= 0" true (lb_h >= 0.0);
  checkb "h-bound below h best-of" true (lb_h <= off_h.Ccache_offline.Best_of.cost +. 1e-6);
  (* tightening constraints cannot lower the optimum; ascent noise gets
     a small tolerance *)
  checkb "h-bound >= k-bound (up to ascent slack)" true (lb_h >= lb_k *. 0.75)

let test_lower_bound_convenience () =
  let t =
    Workloads.generate ~seed:9 ~length:60
      (Workloads.symmetric_zipf ~tenants:1 ~pages_per_tenant:5 ~skew:0.5)
  in
  let costs = mono_costs 1 in
  let lb =
    DS.lower_bound
      ~options:{ DS.default_options with iterations = 80 }
      ~k:2 ~costs t
  in
  (* any real schedule costs at least the bound *)
  let off =
    Ccache_offline.Best_of.compute ~local_search_rounds:0 ~cache_size:2 ~costs t
  in
  checkb "bound below best-of" true (lb <= off.Ccache_offline.Best_of.cost +. 1e-6)

(* ------------------------------------------------------------------ *)
(* KKT and rounding                                                    *)
(* ------------------------------------------------------------------ *)

let test_kkt_residuals () =
  let t = sample_trace () in
  let costs = mono_costs 2 in
  let cp = F.of_trace ~flush:true ~cache_size:2 ~costs t in
  let sol = DS.solve ~options:{ DS.default_options with iterations = 200 } cp in
  let { L.x_star; _ } = L.eval cp ~y:sol.DS.best_y in
  let r = Kkt.compute cp ~x:x_star ~y:sol.DS.best_y in
  checkb "dual feasible" true (r.Kkt.dual_infeasibility <= 1e-9);
  checkb "box feasible" true (r.Kkt.box_infeasibility <= 1e-9);
  (* inner minimiser satisfies variable complementarity by construction *)
  checkb "complementarity small" true (r.Kkt.complementarity <= 1e-6);
  checkb "stationarity small" true (r.Kkt.stationarity <= 1e-6);
  checkb "worst is finite" true (Float.is_finite (Kkt.worst r))

let test_rounding_feasible_schedule () =
  let t =
    Workloads.generate ~seed:10 ~length:100
      (Workloads.symmetric_zipf ~tenants:2 ~pages_per_tenant:8 ~skew:0.7)
  in
  let costs = mono_costs 2 in
  let k = 3 in
  let cp = F.of_trace ~flush:true ~cache_size:k ~costs t in
  let sol = DS.solve ~options:{ DS.default_options with iterations = 60 } cp in
  let { L.x_star; _ } = L.eval cp ~y:sol.DS.best_y in
  let rounded = R.round cp ~x:x_star in
  (* rounded schedule costs at least the dual bound *)
  checkb "rounded >= dual bound" true
    (rounded.R.cost_by_evictions >= sol.DS.bound -. 1e-6);
  (* eviction counts are conserved: flush makes evictions ~ misses *)
  checkb "evictions close to misses" true
    (Array.for_all2
       (fun e m -> e <= m)
       rounded.R.evictions_per_user rounded.R.misses_per_user
    || rounded.R.cost_by_evictions <= rounded.R.cost_by_misses +. 1e-9)

(* The rounding as it was hand-written before it replayed through the
   engine: its own cached-page table, miss and eviction arrays, and the
   flushed program's pinned dummy requests replayed as requests that
   evict but never enter.  The oracle of the equivalence property
   below. *)
module Reference_rounding = struct
  let round (cp : F.t) ~x =
    let trace = cp.F.trace in
    let n = Trace.length trace in
    let real = cp.F.real_users in
    let k = cp.F.cache_size in
    let var_at = Array.make n (-1) in
    Array.iteri (fun vi v -> var_at.(v.F.start_pos) <- vi) cp.F.vars;
    let cached : int Page.Tbl.t = Page.Tbl.create 64 in
    let misses = Array.make (real + 1) 0 in
    let evictions = Array.make (real + 1) 0 in
    let frac pos =
      let vi = var_at.(pos) in
      if vi < 0 then 1e9 else x.(vi)
    in
    for pos = 0 to n - 1 do
      let p = Trace.request trace pos in
      let u = Stdlib.min (Page.user p) real in
      if Page.Tbl.mem cached p then Page.Tbl.replace cached p pos
      else begin
        misses.(u) <- misses.(u) + 1;
        if u < real || Page.Tbl.length cached > 0 then begin
          if Page.Tbl.length cached >= k
             || (u >= real && Page.Tbl.length cached > 0)
          then begin
            let victim = ref None in
            Page.Tbl.iter
              (fun q qpos ->
                let f = frac qpos in
                match !victim with
                | None -> victim := Some (q, f)
                | Some (bq, bf) ->
                    if f > bf || (f = bf && Page.compare q bq < 0) then
                      victim := Some (q, f))
              cached;
            match !victim with
            | Some (q, _) ->
                Page.Tbl.remove cached q;
                evictions.(Stdlib.min (Page.user q) real) <-
                  evictions.(Stdlib.min (Page.user q) real) + 1
            | None -> ()
          end;
          if u < real then Page.Tbl.replace cached p pos
        end
      end
    done;
    let eval_cost counts =
      let acc = ref 0.0 in
      for u = 0 to real - 1 do
        acc := !acc +. Cf.eval cp.F.costs.(u) (float_of_int counts.(u))
      done;
      !acc
    in
    {
      R.misses_per_user = Array.sub misses 0 real;
      evictions_per_user = Array.sub evictions 0 real;
      cost_by_misses = eval_cost misses;
      cost_by_evictions = eval_cost evictions;
    }
end

(* The engine-driven rounding equals the hand-written one, every field,
   the costs bit for bit, on flushed and unflushed programs; x is drawn
   from {0, 0.5, 1, uniform} so that ties between cached pages occur
   and the smaller-page tie-break decides. *)
let rounding_equals_reference =
  let bits = Int64.bits_of_float in
  QCheck.Test.make ~name:"rounding = reference replay, field by field"
    ~count:300
    QCheck.(
      quad (int_range 1 6) (int_range 1 4) bool (pair small_nat bool))
    (fun (k, users, flush, (seed, float_cost)) ->
      let rng = Prng.create ~seed in
      let t =
        Trace.of_list ~n_users:users
          (List.init 80 (fun _ ->
               Page.make ~user:(Prng.int rng users) ~id:(Prng.int rng 6)))
      in
      let costs =
        if float_cost then
          Array.init users (fun i ->
              if i mod 2 = 0 then Cf.monomial ~beta:1.7 ()
              else Ccache_cost.Sla.hinge ~tolerance:3.0 ~penalty_rate:2.5)
        else mono_costs users
      in
      let cp = F.of_trace ~flush ~cache_size:k ~costs t in
      let x =
        Array.init (F.n_vars cp) (fun _ ->
            match Prng.int rng 4 with
            | 0 -> 0.0
            | 1 -> 0.5
            | 2 -> 1.0
            | _ -> Prng.float rng)
      in
      let a = R.round cp ~x and b = Reference_rounding.round cp ~x in
      a.R.misses_per_user = b.R.misses_per_user
      && a.R.evictions_per_user = b.R.evictions_per_user
      && bits a.R.cost_by_misses = bits b.R.cost_by_misses
      && bits a.R.cost_by_evictions = bits b.R.cost_by_evictions)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_cp"
    [
      ( "formulation",
        [
          Alcotest.test_case "vars" `Quick test_formulation_vars;
          Alcotest.test_case "flush pins dummy" `Quick test_formulation_flush_pins_dummy;
          Alcotest.test_case "rhs" `Quick test_formulation_rhs;
          Alcotest.test_case "activity brute force" `Quick test_constraint_activity_brute_force;
          Alcotest.test_case "var costs brute force" `Quick test_var_costs_brute_force;
          Alcotest.test_case "objective" `Quick test_objective;
          Alcotest.test_case "engine run feasible" `Quick test_engine_run_is_feasible;
          Alcotest.test_case "infeasible detected" `Quick test_infeasible_detected;
        ] );
      ( "lagrangian",
        [
          Alcotest.test_case "inner min brute force" `Quick test_minimize_user_brute_force;
          Alcotest.test_case "solution consistent" `Quick test_minimize_user_solution_consistent;
        ]
        @ qsuite [ weak_duality ] );
      ( "dual_solver",
        [
          Alcotest.test_case "improves and sound" `Quick test_dual_solver_improves_and_sound;
          Alcotest.test_case "bi-criteria bound" `Quick test_bicriteria_dual_bound;
          Alcotest.test_case "lower_bound convenience" `Quick test_lower_bound_convenience;
        ] );
      ( "kkt_rounding",
        [
          Alcotest.test_case "kkt residuals" `Quick test_kkt_residuals;
          Alcotest.test_case "rounding feasible" `Quick test_rounding_feasible_schedule;
        ]
        @ qsuite [ rounding_equals_reference ] );
    ]
