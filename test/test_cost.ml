(* Tests for ccache_cost: cost functions, piecewise curves, SLA
   builders, alpha computation and the validity checks of Calculus. *)

module Cf = Ccache_cost.Cost_function
module Pw = Ccache_cost.Piecewise
module Sla = Ccache_cost.Sla
module Calc = Ccache_cost.Calculus

let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg
let checkf_loose msg = Alcotest.(check (float 1e-6)) msg

(* ------------------------------------------------------------------ *)
(* Constructors and evaluation                                         *)
(* ------------------------------------------------------------------ *)

let test_linear () =
  let f = Cf.linear ~slope:3.0 () in
  checkf "f(0)" 0.0 (Cf.eval f 0.0);
  checkf "f(4)" 12.0 (Cf.eval f 4.0);
  checkf "f'(7)" 3.0 (Cf.deriv f 7.0);
  checkf "marginal" 3.0 (Cf.marginal f 5);
  checkf "alpha" 1.0 (Cf.alpha f);
  Alcotest.check_raises "negative slope"
    (Invalid_argument "Cost_function.linear: negative slope") (fun () ->
      ignore (Cf.linear ~slope:(-1.0) ()))

let test_monomial () =
  let f = Cf.monomial ~beta:2.0 () in
  checkf "f(3)" 9.0 (Cf.eval f 3.0);
  checkf "f'(3)" 6.0 (Cf.deriv f 3.0);
  checkf "marginal 3rd miss" 5.0 (Cf.marginal f 3);
  checkf "alpha = beta" 2.0 (Cf.alpha f);
  checkf "f(0)" 0.0 (Cf.eval f 0.0);
  let cube = Cf.monomial ~beta:3.0 () in
  checkf "cube alpha" 3.0 (Cf.alpha cube);
  Alcotest.check_raises "beta < 1"
    (Invalid_argument "Cost_function.monomial: beta must be >= 1") (fun () ->
      ignore (Cf.monomial ~beta:0.5 ()))

let test_polynomial () =
  let f = Cf.polynomial [| 0.0; 2.0; 1.0 |] in
  (* f(x) = 2x + x^2 *)
  checkf "f(3)" 15.0 (Cf.eval f 3.0);
  checkf "f'(3)" 8.0 (Cf.deriv f 3.0);
  checkf "alpha = degree" 2.0 (Cf.alpha f);
  Alcotest.check_raises "nonzero constant"
    (Invalid_argument "Cost_function.polynomial: constant term must be 0 (f(0)=0)")
    (fun () -> ignore (Cf.polynomial [| 1.0; 1.0 |]))

let test_exponential () =
  let f = Cf.exponential ~rate:0.5 ~scale:2.0 () in
  checkf "f(0)" 0.0 (Cf.eval f 0.0);
  checkf "f(2)" (2.0 *. (exp 1.0 -. 1.0)) (Cf.eval f 2.0);
  checkf "f'(2)" (exp 1.0) (Cf.deriv f 2.0);
  (* alpha is unbounded: the reported value grows with max_x *)
  checkb "alpha grows" true (Cf.alpha ~max_x:100.0 f < Cf.alpha ~max_x:1000.0 f)

let test_custom_and_combinators () =
  let f = Cf.monomial ~beta:2.0 () in
  let g = Cf.scale ~by:3.0 f in
  checkf "scaled eval" 27.0 (Cf.eval g 3.0);
  checkf "scaled deriv" 18.0 (Cf.deriv g 3.0);
  checkf "scaled alpha unchanged" 2.0 (Cf.alpha g);
  let h = Cf.sum f (Cf.linear ~slope:1.0 ()) in
  checkf "sum eval" 12.0 (Cf.eval h 3.0);
  checkf "sum alpha = max" 2.0 (Cf.alpha h);
  Alcotest.check_raises "scale by 0"
    (Invalid_argument "Cost_function.scale: factor must be positive") (fun () ->
      ignore (Cf.scale ~by:0.0 f))

let test_eval_negative_rejected () =
  let f = Cf.monomial ~beta:2.0 () in
  Alcotest.check_raises "negative x"
    (Invalid_argument "Cost_function.eval: negative miss count") (fun () ->
      ignore (Cf.eval f (-1.0)));
  Alcotest.check_raises "marginal at 0"
    (Invalid_argument "Cost_function.marginal: x must be >= 1") (fun () ->
      ignore (Cf.marginal f 0))

(* [Marginals] must hold the very float [marginal] returns at every
   count.  The slots have non-integer marginals, where a reordered
   float operation would show in the bits. *)
let test_marginals_bit_identical () =
  let costs =
    [|
      Cf.monomial ~beta:1.7 ();
      Cf.monomial ~beta:2.3 ();
      Cf.linear ~slope:0.3 ();
      Sla.hinge ~tolerance:3.0 ~penalty_rate:2.5;
      Cf.exponential ~rate:0.001 ~scale:0.7 ();
      Cf.scale ~by:0.37 (Cf.monomial ~beta:1.3 ());
      Cf.sum (Cf.linear ~slope:0.1 ()) (Cf.monomial ~beta:2.7 ());
    |]
  in
  let n = Array.length costs in
  let m = Cf.Marginals.create costs in
  let counts = Array.make n 0 in
  let mismatches = ref 0 in
  let check_all () =
    Array.iteri
      (fun s f ->
        let got = Float.Array.get (Cf.Marginals.rates m) s in
        let want = Cf.marginal f (counts.(s) + 1) in
        if Int64.bits_of_float got <> Int64.bits_of_float want then
          incr mismatches)
      costs
  in
  check_all ();
  let rng = Ccache_util.Prng.create ~seed:5 in
  for _ = 1 to 20_000 do
    let s = Ccache_util.Prng.int rng n in
    Cf.Marginals.advance m s;
    counts.(s) <- counts.(s) + 1;
    check_all ()
  done;
  Alcotest.(check int) "rates whose bits differ from marginal" 0 !mismatches

let test_rate_modes () =
  let f = Cf.monomial ~beta:2.0 () in
  checkf "analytic rate" 6.0 (Cf.rate f Cf.Analytic 3);
  checkf "discrete rate" 5.0 (Cf.rate f Cf.Discrete 3)

(* ------------------------------------------------------------------ *)
(* Piecewise                                                           *)
(* ------------------------------------------------------------------ *)

let test_piecewise_eval () =
  let segs = Pw.validate [| (0.0, 1.0); (10.0, 3.0) |] in
  checkf "before break" 5.0 (Pw.eval segs 5.0);
  checkf "at break" 10.0 (Pw.eval segs 10.0);
  checkf "after break" 16.0 (Pw.eval segs 12.0);
  checkf "deriv before" 1.0 (Pw.deriv segs 5.0);
  checkf "deriv at break (right)" 3.0 (Pw.deriv segs 10.0);
  checkf "deriv after" 3.0 (Pw.deriv segs 12.0);
  checkb "convex" true (Pw.is_convex segs)

let test_piecewise_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Piecewise.validate: empty")
    (fun () -> ignore (Pw.validate [||]));
  Alcotest.check_raises "first not 0"
    (Invalid_argument "Piecewise.validate: first breakpoint must be 0") (fun () ->
      ignore (Pw.validate [| (1.0, 1.0) |]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Piecewise.validate: duplicate breakpoint") (fun () ->
      ignore (Pw.validate [| (0.0, 1.0); (0.0, 2.0) |]));
  checkb "non-convex accepted but flagged" false
    (Pw.is_convex (Pw.validate [| (0.0, 3.0); (5.0, 1.0) |]))

let test_piecewise_sorting () =
  (* validate sorts by breakpoint *)
  let segs = Pw.validate [| (10.0, 2.0); (0.0, 1.0) |] in
  checkf "sorted eval" 3.0 (Pw.eval segs 3.0)

let test_piecewise_many_segments () =
  let segs =
    Pw.validate (Array.init 10 (fun i -> (float_of_int (5 * i), float_of_int (i + 1))))
  in
  (* slope i+1 on [5i, 5i+5); eval is sum of full segments *)
  let expected x =
    let rec go i acc =
      let lo = 5.0 *. float_of_int i in
      let hi = lo +. 5.0 in
      if x <= hi || i = 9 then acc +. (float_of_int (i + 1) *. (x -. lo))
      else go (i + 1) (acc +. (float_of_int (i + 1) *. 5.0))
    in
    go 0 0.0
  in
  List.iter
    (fun x -> checkf_loose (Printf.sprintf "eval %g" x) (expected x) (Pw.eval segs x))
    [ 0.0; 2.5; 5.0; 7.0; 23.0; 44.9; 45.0; 60.0 ]

(* ------------------------------------------------------------------ *)
(* SLA builders                                                        *)
(* ------------------------------------------------------------------ *)

let test_sla_hinge () =
  let f = Sla.hinge ~tolerance:10.0 ~penalty_rate:2.0 in
  checkf "free region" 0.0 (Cf.eval f 10.0);
  checkf "charged region" 10.0 (Cf.eval f 15.0);
  checkf "deriv in free region" 0.0 (Cf.deriv f 5.0);
  checkf "deriv charged" 2.0 (Cf.deriv f 15.0);
  (* integer-restricted alpha: attained at x = 11 -> 11*2/2 = 11 *)
  checkf "alpha" 11.0 (Cf.alpha f);
  let f0 = Sla.hinge ~tolerance:0.0 ~penalty_rate:2.0 in
  checkf "zero tolerance is linear" 1.0 (Cf.alpha f0)

let test_sla_tiered () =
  let f = Sla.tiered ~thresholds:[ 10.0; 20.0 ] ~base_rate:1.0 ~escalation:2.0 in
  checkf "tier 1" 5.0 (Cf.eval f 5.0);
  checkf "tier 2" 14.0 (Cf.eval f 12.0);
  (* 10*1 + 10*2 + 5*4 *)
  checkf "tier 3" 50.0 (Cf.eval f 25.0);
  checkb "convex" true (Calc.is_valid_for_guarantee ~max_x:200.0 f)

let test_sla_smooth_hinge () =
  let f = Sla.smooth_hinge ~tolerance:10.0 ~penalty_rate:2.0 in
  checkf "free" 0.0 (Cf.eval f 8.0);
  checkf "quadratic" 25.0 (Cf.eval f 15.0);
  checkf "deriv" 10.0 (Cf.deriv f 15.0);
  checkb "alpha finite" true (Float.is_finite (Cf.alpha f))

let test_sla_validation () =
  Alcotest.check_raises "hinge rate"
    (Invalid_argument "Sla.hinge: penalty_rate must be positive") (fun () ->
      ignore (Sla.hinge ~tolerance:1.0 ~penalty_rate:0.0));
  Alcotest.check_raises "tiered escalation"
    (Invalid_argument "Sla.tiered: escalation must be >= 1") (fun () ->
      ignore (Sla.tiered ~thresholds:[ 1.0 ] ~base_rate:1.0 ~escalation:0.5));
  Alcotest.check_raises "exponential rate"
    (Invalid_argument "Cost_function.exponential: rate and scale must be positive")
    (fun () -> ignore (Cf.exponential ~rate:0.0 ~scale:1.0 ()))

let test_hinge_discrete_rate_near_breakpoint () =
  (* discrete marginal crosses the hinge smoothly: the miss that spans
     the breakpoint is charged only for its past-tolerance part *)
  let f = Sla.hinge ~tolerance:2.5 ~penalty_rate:4.0 in
  checkb "below" true (Cf.rate f Cf.Discrete 2 = 0.0);
  checkb "spanning miss" true (Cf.rate f Cf.Discrete 3 = 2.0);
  checkb "past" true (Cf.rate f Cf.Discrete 4 = 4.0)

let test_sla_step_refund_nonconvex () =
  let f = Sla.step_refund ~thresholds:[ 5.0; 10.0 ] ~fee:3.0 in
  checkf "below" 0.0 (Cf.eval f 4.0);
  checkf "one tier" 3.0 (Cf.eval f 7.0);
  checkf "two tiers" 6.0 (Cf.eval f 12.0);
  (* non-convex: Calculus must flag it *)
  checkb "flagged non-convex" false (Calc.is_valid_for_guarantee ~max_x:50.0 f)

(* ------------------------------------------------------------------ *)
(* Calculus                                                            *)
(* ------------------------------------------------------------------ *)

let test_calculus_accepts_valid () =
  List.iter
    (fun f -> checkb (Cf.name f ^ " valid") true (Calc.is_valid_for_guarantee f))
    [
      Cf.linear ~slope:2.0 ();
      Cf.monomial ~beta:2.0 ();
      Cf.monomial ~beta:1.5 ();
      Cf.polynomial [| 0.0; 1.0; 0.5; 0.25 |];
      Sla.hinge ~tolerance:5.0 ~penalty_rate:1.0;
      Sla.tiered ~thresholds:[ 3.0 ] ~base_rate:1.0 ~escalation:2.0;
    ]

let test_calculus_rejects_invalid () =
  (* decreasing "cost" *)
  let bad =
    Cf.custom ~name:"decreasing" ~eval:(fun x -> -.x) ~deriv:(fun _ -> -1.0) ()
  in
  checkb "rejects decreasing" false (Calc.is_valid_for_guarantee bad);
  (* f(0) <> 0 *)
  let shifted =
    Cf.custom ~name:"shifted" ~eval:(fun x -> x +. 1.0) ~deriv:(fun _ -> 1.0) ()
  in
  checkb "rejects f(0)<>0" false (Calc.is_valid_for_guarantee shifted);
  (* concave *)
  let concave =
    Cf.custom ~name:"sqrt" ~eval:sqrt ~deriv:(fun x -> 0.5 /. sqrt (Float.max x 1e-9)) ()
  in
  checkb "rejects concave" false (Calc.validate_for_guarantee concave = [])

let test_calculus_derivative_check () =
  let good = Cf.monomial ~beta:2.0 () in
  checkb "analytic matches numeric" true (Calc.check_derivative good = []);
  let lying =
    Cf.custom ~name:"lying" ~eval:(fun x -> x *. x) ~deriv:(fun _ -> 0.0) ()
  in
  checkb "detects wrong derivative" true (Calc.check_derivative lying <> [])

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* marginal telescopes: sum of marginals 1..n = f(n) *)
let marginal_telescopes =
  QCheck.Test.make ~name:"marginals telescope to eval" ~count:100
    QCheck.(pair (int_range 1 50) (float_range 1.0 3.0))
    (fun (n, beta) ->
      let f = Cf.monomial ~beta () in
      let acc = ref 0.0 in
      for x = 1 to n do
        acc := !acc +. Cf.marginal f x
      done;
      Float.abs (!acc -. Cf.eval f (float_of_int n)) < 1e-6 *. Float.max 1.0 !acc)

(* alpha dominates the pointwise ratio at integer points *)
let alpha_dominates =
  QCheck.Test.make ~name:"alpha dominates pointwise ratio" ~count:100
    QCheck.(pair (int_range 1 1000) (float_range 1.0 3.0))
    (fun (x, beta) ->
      let f = Cf.monomial ~beta () in
      let x = float_of_int x in
      let ratio = x *. Cf.deriv f x /. Cf.eval f x in
      ratio <= Cf.alpha f +. 1e-9)

(* piecewise with non-decreasing slopes is convex and increasing *)
let piecewise_convex_increasing =
  QCheck.Test.make ~name:"increasing-slope piecewise passes guarantee checks"
    ~count:60
    QCheck.(list_of_size (Gen.int_range 1 5) (float_range 0.1 4.0))
    (fun raw_slopes ->
      let slopes = List.sort compare raw_slopes in
      let segs =
        List.mapi (fun i s -> (float_of_int (8 * i), s)) slopes |> Array.of_list
      in
      let f = Cf.piecewise_linear segs in
      Calc.is_valid_for_guarantee ~max_x:200.0 f)

(* NaN slips past sign checks (every comparison with NaN is false), so
   non-finite parameters need their own rejection path naming the
   offending field. *)
let test_float_hygiene () =
  Alcotest.check_raises "nan slope"
    (Invalid_argument "Cost_function.linear: slope = nan is not finite")
    (fun () -> ignore (Cf.linear ~slope:Float.nan ()));
  Alcotest.check_raises "inf beta"
    (Invalid_argument "Cost_function.monomial: beta = inf is not finite")
    (fun () -> ignore (Cf.monomial ~beta:Float.infinity ()));
  Alcotest.check_raises "nan coefficient"
    (Invalid_argument "Cost_function.polynomial: coefficient = nan is not finite")
    (fun () -> ignore (Cf.polynomial [| 0.0; Float.nan |]));
  Alcotest.check_raises "nan exponential rate"
    (Invalid_argument "Cost_function.exponential: rate = nan is not finite")
    (fun () -> ignore (Cf.exponential ~rate:Float.nan ~scale:1.0 ()));
  Alcotest.check_raises "inf exponential scale"
    (Invalid_argument "Cost_function.exponential: scale = inf is not finite")
    (fun () -> ignore (Cf.exponential ~rate:1.0 ~scale:Float.infinity ()));
  let f = Cf.linear ~slope:2.0 () in
  Alcotest.check_raises "nan eval point"
    (Invalid_argument "Cost_function.eval: x = nan is not finite") (fun () ->
      ignore (Cf.eval f Float.nan));
  Alcotest.check_raises "inf deriv point"
    (Invalid_argument "Cost_function.deriv: x = inf is not finite") (fun () ->
      ignore (Cf.deriv f Float.infinity));
  Alcotest.check_raises "nan scale factor"
    (Invalid_argument "Cost_function.scale: by = nan is not finite") (fun () ->
      ignore (Cf.scale ~by:Float.nan f))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_cost"
    [
      ( "cost_function",
        [
          Alcotest.test_case "linear" `Quick test_linear;
          Alcotest.test_case "monomial" `Quick test_monomial;
          Alcotest.test_case "polynomial" `Quick test_polynomial;
          Alcotest.test_case "exponential" `Quick test_exponential;
          Alcotest.test_case "combinators" `Quick test_custom_and_combinators;
          Alcotest.test_case "negative rejected" `Quick test_eval_negative_rejected;
          Alcotest.test_case "non-finite rejected" `Quick test_float_hygiene;
          Alcotest.test_case "rate modes" `Quick test_rate_modes;
          Alcotest.test_case "cached marginals bit-identical" `Quick
            test_marginals_bit_identical;
        ] );
      ( "piecewise",
        [
          Alcotest.test_case "eval/deriv" `Quick test_piecewise_eval;
          Alcotest.test_case "validation" `Quick test_piecewise_validation;
          Alcotest.test_case "sorting" `Quick test_piecewise_sorting;
          Alcotest.test_case "many segments" `Quick test_piecewise_many_segments;
        ] );
      ( "sla",
        [
          Alcotest.test_case "hinge" `Quick test_sla_hinge;
          Alcotest.test_case "tiered" `Quick test_sla_tiered;
          Alcotest.test_case "smooth hinge" `Quick test_sla_smooth_hinge;
          Alcotest.test_case "step refund non-convex" `Quick
            test_sla_step_refund_nonconvex;
          Alcotest.test_case "validation" `Quick test_sla_validation;
          Alcotest.test_case "hinge discrete rate" `Quick
            test_hinge_discrete_rate_near_breakpoint;
        ] );
      ( "calculus",
        [
          Alcotest.test_case "accepts valid" `Quick test_calculus_accepts_valid;
          Alcotest.test_case "rejects invalid" `Quick test_calculus_rejects_invalid;
          Alcotest.test_case "derivative check" `Quick test_calculus_derivative_check;
        ] );
      ( "properties",
        qsuite [ marginal_telescopes; alpha_dominates; piecewise_convex_increasing ] );
    ]
