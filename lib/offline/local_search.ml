(** Local search over offline schedules.

    Starts from a recorded run of the seed offline policy,
    convex-Belady, and hill-climbs: pick an eviction event, force a
    different victim there, let the seed policy finish the rest of the
    trace, and keep the change if total cost drops.  The "replay then
    delegate" wrapper feeds the inner policy every event so its state
    is always consistent with the cache contents; only the victim
    choices up to the switch point are scripted.

    Deterministically seeded; the result is a feasible offline schedule
    whose cost upper-bounds OPT at least as tightly as the seed's. *)

module Policy = Ccache_sim.Policy
module Engine = Ccache_sim.Engine
module Metrics = Ccache_sim.Metrics
module Prng = Ccache_util.Prng
open Ccache_trace

(* A policy that follows [script] (victims for the first evictions, in
   order), with one [override] at eviction number [switch], then
   delegates every later choice to [inner]. *)
let scripted ~inner ~script ~switch ~override =
  Policy.make ~needs_future:true
    ~name:(Policy.name inner ^ "+ls")
    (fun config ->
      let h = Policy.instantiate inner config in
      let eviction_no = ref 0 in
      {
        Policy.on_hit = h.Policy.on_hit;
        wants_evict = h.Policy.wants_evict;
        choose_victim =
          (fun ~pos ~incoming ->
            let e = !eviction_no in
            if e < switch then script.(e)
            else if e = switch then override
            else h.Policy.choose_victim ~pos ~incoming);
        on_insert = h.Policy.on_insert;
        on_evict =
          (fun ~pos page ->
            incr eviction_no;
            h.Policy.on_evict ~pos page);
      })

type result = {
  cost : float;
  misses_per_user : int array;
  improvements : int;
  evaluations : int;
}

(** Improve a schedule for [trace] with cache size [cache_size],
    starting from and delegating to convex-Belady; move sampling is
    seeded with the constant 1234.

    @param rounds   candidate moves to evaluate (default 60) *)
let improve ?(rounds = 60) ~cache_size ~costs trace =
  let inner = Ccache_policies.Convex_belady.policy in
  let index = Trace.Index.build trace in
  let rng = Prng.create ~seed:1234 in
  let run_policy policy =
    Engine.run_logged ~index ~k:cache_size ~costs policy trace
  in
  let cost_of result = Metrics.total_cost ~costs result in
  let victims_of log =
    log
    |> List.filter_map (function
         | Engine.Miss_evict { victim; _ } -> Some victim
         | Engine.Hit _ | Engine.Miss_insert _ -> None)
    |> Array.of_list
  in
  (* cache contents just before eviction [e]: replay the log *)
  let cached_before log target_eviction =
    let cached = Page.Tbl.create 64 in
    let e = ref 0 in
    (try
       List.iter
         (fun ev ->
           match ev with
           | Engine.Hit _ -> ()
           | Engine.Miss_insert { page; _ } -> Page.Tbl.replace cached page ()
           | Engine.Miss_evict { page; victim; _ } ->
               if !e = target_eviction then raise Exit;
               incr e;
               Page.Tbl.remove cached victim;
               Page.Tbl.replace cached page ())
         log
     with Exit -> ());
    Page.Tbl.fold (fun p () acc -> p :: acc) cached []
  in
  let best_result = ref (run_policy inner) in
  let best_cost = ref (cost_of (fst !best_result)) in
  let improvements = ref 0 and evaluations = ref 0 in
  for _ = 1 to rounds do
    let _, log = !best_result in
    let script = victims_of log in
    let n_evictions = Array.length script in
    if n_evictions > 0 then begin
      let e = Prng.int rng n_evictions in
      let candidates =
        cached_before log e
        |> List.filter (fun p -> not (Page.equal p script.(e)))
      in
      if candidates <> [] then begin
        let override = List.nth candidates (Prng.int rng (List.length candidates)) in
        let policy = scripted ~inner ~script ~switch:e ~override in
        incr evaluations;
        match run_policy policy with
        | result, log' ->
            let c = cost_of result in
            if c < !best_cost then begin
              best_cost := c;
              best_result := (result, log');
              incr improvements
            end
        | exception Engine.Policy_error _ -> ()
      end
    end
  done;
  let result, _ = !best_result in
  {
    cost = !best_cost;
    misses_per_user = result.Engine.misses_per_user;
    improvements = !improvements;
    evaluations = !evaluations;
  }
