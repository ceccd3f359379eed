(** Per-instance competitive certificates from the algorithm's own
    dual variables.

    ALG-CONT maintains dual multipliers y° for exactly the constraints
    of (CP) on the flushed trace.  By weak duality, the Lagrangian dual
    value g(y°) — or g at any rescaling c*y°, since validity does not
    depend on how y was produced — lower-bounds the offline optimum.
    So after a single online run we can output a {e certificate}:

      competitive ratio on this instance <= cost(ALG) / g(c*y°)

    with no reference to offline heuristics at all.  The theory
    guarantees the worst case alpha^alpha k^alpha; the certificate is
    typically far smaller, which is exactly the gap EXPERIMENTS.md
    (E11) quantifies.  A few warm-started ascent iterations usually
    tighten the bound further. *)

module Cont = Ccache_core.Alg_cont
module F = Ccache_cp.Formulation
module L = Ccache_cp.Lagrangian

type t = {
  online_cost : float;  (** sum_i f_i(misses_i) of the run *)
  raw_bound : float;  (** g(y°) at the algorithm's own duals *)
  scaled_bound : float;  (** max over a scaling grid of g(c * y°) *)
  best_scale : float;
  improved_bound : float;  (** after warm-started ascent iterations *)
  certified_ratio : float;  (** online_cost / improved_bound *)
}

let scales = [ 0.05; 0.1; 0.25; 0.5; 0.75; 1.0; 1.5; 2.0; 4.0 ]

(** Certify a run of the paper's algorithm on [trace].

    @param ascent_iterations warm-started refinement steps (default 50;
      0 disables). *)
let certify ?(ascent_iterations = 50) ~k ~costs trace =
  (* A cache that holds every distinct page behaves like one of exactly
     that size, for ALG and for OPT: only compulsory misses, and a flush
     that ends once those pages are out.  Certifying at that size keeps
     the program's k dummy requests, and so the bound, from growing
     with a k the trace cannot fill. *)
  let k = Stdlib.max 1 (Stdlib.min k (Ccache_trace.Trace.n_pages trace)) in
  let run = Cont.run ~flush:true ~k ~costs trace in
  let online_cost = Cont.total_cost run in
  let cp = F.of_trace ~flush:true ~cache_size:k ~costs trace in
  if F.horizon cp <> Array.length run.Cont.y then
    invalid_arg "Certificate.certify: horizon mismatch (internal)";
  let eval_scaled c =
    let y = Array.map (fun v -> c *. v) run.Cont.y in
    (L.eval cp ~y).L.value
  in
  let raw_bound = eval_scaled 1.0 in
  let scaled_bound, best_scale =
    List.fold_left
      (fun (bv, bc) c ->
        let v = eval_scaled c in
        if v > bv then (v, c) else (bv, bc))
      (raw_bound, 1.0) scales
  in
  let improved_bound =
    if ascent_iterations <= 0 then scaled_bound
    else begin
      (* warm-started ascent: like Dual_solver but starting from the
         certificate's best rescaled y° rather than zero *)
      let y = Array.map (fun v -> best_scale *. v) run.Cont.y in
      let active = Array.map (fun rhs -> rhs > 0) cp.F.rhs in
      let best = ref scaled_bound in
      for i = 0 to ascent_iterations - 1 do
        let { L.value; x_star; _ } = L.eval cp ~y in
        if value > !best then best := value;
        let grad = L.supergradient cp ~x_star in
        let norm = ref 0.0 in
        Array.iteri (fun t g -> if active.(t) then norm := !norm +. (g *. g)) grad;
        let norm = sqrt !norm in
        if norm > 0.0 then begin
          let step =
            Float.max 1.0 (Float.abs scaled_bound)
            /. norm
            /. float_of_int (10 * (i + 1))
          in
          Array.iteri
            (fun t g -> if active.(t) then y.(t) <- Float.max 0.0 (y.(t) +. (step *. g)))
            grad
        end
      done;
      let { L.value; _ } = L.eval cp ~y in
      Float.max !best value
    end
  in
  let improved_bound = Float.max improved_bound 0.0 in
  {
    online_cost;
    raw_bound;
    scaled_bound;
    best_scale;
    improved_bound;
    certified_ratio =
      (if improved_bound > 0.0 then online_cost /. improved_bound else infinity);
  }

let pp ppf c =
  Fmt.pf ppf
    "online=%.6g g(y°)=%.6g scaled(x%.2g)=%.6g improved=%.6g certified<=%.3f"
    c.online_cost c.raw_bound c.best_scale c.scaled_bound c.improved_bound
    c.certified_ratio
