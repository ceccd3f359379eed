(** Convex piecewise-linear functions through the origin.

    Represented as an array of [(breakpoint, slope)] pairs sorted by
    breakpoint; [slope_j] applies on [x >= breakpoint_j] until the next
    breakpoint.  The first breakpoint must be [0.0].  Convexity (and
    hence a valid alpha) requires slopes to be non-decreasing; the
    builders in {!Sla} always produce convex curves, but [validate]
    accepts non-convex slope sequences too because the paper's algorithm
    runs (without guarantee) on arbitrary costs. *)

let validate segments =
  let segs = Array.copy segments in
  if Array.length segs = 0 then invalid_arg "Piecewise.validate: empty";
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) segs;
  let x0, _ = segs.(0) in
  (* Breakpoints are user-supplied constants; the first must be
     literally 0, so the exact test is the specification. *)
  if (x0 <> 0.0 [@lint.allow "float-eq"]) then
    invalid_arg "Piecewise.validate: first breakpoint must be 0";
  Array.iteri
    (fun i (x, s) ->
      if s < 0.0 then invalid_arg "Piecewise.validate: negative slope";
      if i > 0 then begin
        let px, _ = segs.(i - 1) in
        if x = px then invalid_arg "Piecewise.validate: duplicate breakpoint"
      end)
    segs;
  segs

let is_convex segs =
  let ok = ref true in
  for i = 1 to Array.length segs - 1 do
    let _, s0 = segs.(i - 1) and _, s1 = segs.(i) in
    if s1 < s0 then ok := false
  done;
  !ok

(* invariant: breakpoint(lo) <= x, breakpoint(hi) > x or hi = n.
   Toplevel rather than a local closure: [segment_index] sits on the
   eviction hot path of SLA cost functions, and a local [bsearch]
   capturing [segs] and [x] costs a closure allocation per call. *)
let rec bsearch segs x lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) / 2 in
    let bx, _ = segs.(mid) in
    if bx <= x then bsearch segs x mid hi else bsearch segs x lo mid

(* Index of the segment containing x: greatest i with breakpoint_i <= x. *)
let segment_index segs x = bsearch segs x 0 (Array.length segs)
  [@@effects.no_alloc] [@@effects.deterministic]

let eval segs x =
  if x < 0.0 then invalid_arg "Piecewise.eval: negative x";
  (* exact-zero fast path; any positive x takes the general branch,
     which also evaluates to 0 in the limit *)
  if (x = 0.0 [@lint.allow "float-eq"]) then 0.0
  else begin
    let idx = segment_index segs x in
    (* accumulate full segments before idx, then the partial one *)
    let acc = ref 0.0 in
    for i = 0 to idx - 1 do
      let bx, s = segs.(i) in
      let nx, _ = segs.(i + 1) in
      acc := !acc +. (s *. (nx -. bx))
    done;
    let bx, s = segs.(idx) in
    !acc +. (s *. (x -. bx))
  end

(** Right derivative (the marginal cost of the next infinitesimal miss);
    at a breakpoint the incoming slope of the segment starting there. *)
let deriv segs x =
  if x < 0.0 then invalid_arg "Piecewise.deriv: negative x";
  let _, s = segs.(segment_index segs x) in
  s
