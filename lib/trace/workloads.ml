(** Synthetic multi-tenant workload generators.

    Stand-in for the proprietary SQLVM buffer-pool traces of the
    companion paper [14] (see DESIGN.md, substitution table): each
    tenant draws page ids from a configurable access pattern, and a
    weighted interleaver merges tenants into one shared request stream.
    All randomness comes from {!Ccache_util.Prng}, so a [(seed, spec)]
    pair fully determines the trace. *)

type pattern =
  | Uniform of { pages : int }
      (** independent uniform draws over a working set *)
  | Zipf of { pages : int; skew : float }
      (** heavy-tailed popularity; skew 0 = uniform *)
  | Cycle of { pages : int }
      (** strict cyclic sweep 0,1,...,pages-1,0,...  With
          [pages = k + 1] this is the classical LRU worst case. *)
  | Sequential_scan of { pages : int; passes : int }
      (** [passes] full sweeps, then wraps to uniform re-reads;
          models a table scan followed by point queries *)
  | Hot_cold of { pages : int; hot_pages : int; hot_prob : float }
      (** with probability [hot_prob] touch one of [hot_pages] hot
          pages uniformly, else a cold page uniformly *)
  | Drifting_zipf of { pages : int; window : int; skew : float; shift_every : int }
      (** Zipf over a [window]-sized working set whose base offset
          advances by one page every [shift_every] requests (mod
          [pages]); models working-set drift *)
  | Mixture of (float * pattern) list
      (** each request drawn from pattern [p_i] with weight [w_i] *)

let require_finite ~field v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Workloads: %s = %g is not finite" field v)

let rec validate_pattern = function
  | Uniform { pages } | Cycle { pages } ->
      if pages <= 0 then invalid_arg "Workloads: pattern needs pages > 0"
  | Zipf { pages; skew } ->
      if pages <= 0 then invalid_arg "Workloads: pattern needs pages > 0";
      require_finite ~field:"skew" skew;
      if skew < 0.0 then invalid_arg "Workloads: negative skew"
  | Sequential_scan { pages; passes } ->
      if pages <= 0 || passes < 0 then invalid_arg "Workloads: bad scan spec"
  | Hot_cold { pages; hot_pages; hot_prob } ->
      if pages <= 0 || hot_pages <= 0 || hot_pages > pages then
        invalid_arg "Workloads: bad hot/cold split";
      require_finite ~field:"hot_prob" hot_prob;
      if hot_prob < 0.0 || hot_prob > 1.0 then
        invalid_arg "Workloads: hot_prob outside [0,1]"
  | Drifting_zipf { pages; window; skew; shift_every } ->
      if pages <= 0 || window <= 0 || window > pages || shift_every <= 0 then
        invalid_arg "Workloads: bad drift spec";
      require_finite ~field:"skew" skew;
      if skew < 0.0 then invalid_arg "Workloads: negative skew"
  | Mixture parts ->
      if parts = [] then invalid_arg "Workloads: empty mixture";
      List.iter
        (fun (w, p) ->
          require_finite ~field:"mixture weight" w;
          if w <= 0.0 then invalid_arg "Workloads: nonpositive mixture weight";
          validate_pattern p)
        parts

(* A sampler is a stateful thunk producing the next page id. *)
let rec make_sampler pattern rng =
  validate_pattern pattern;
  match pattern with
  | Uniform { pages } -> fun () -> Ccache_util.Prng.int rng pages
  | Zipf { pages; skew } ->
      let z = Zipf.create ~n:pages ~skew in
      fun () -> Zipf.sample z rng
  | Cycle { pages } ->
      let pos = ref (-1) in
      fun () ->
        pos := (!pos + 1) mod pages;
        !pos
  | Sequential_scan { pages; passes } ->
      let emitted = ref 0 in
      let budget = passes * pages in
      fun () ->
        if !emitted < budget then begin
          let v = !emitted mod pages in
          incr emitted;
          v
        end
        else Ccache_util.Prng.int rng pages
  | Hot_cold { pages; hot_pages; hot_prob } ->
      fun () ->
        if Ccache_util.Prng.bernoulli rng ~p:hot_prob then
          Ccache_util.Prng.int rng hot_pages
        else if hot_pages = pages then Ccache_util.Prng.int rng pages
        else hot_pages + Ccache_util.Prng.int rng (pages - hot_pages)
  | Drifting_zipf { pages; window; skew; shift_every } ->
      let z = Zipf.create ~n:window ~skew in
      let emitted = ref 0 in
      fun () ->
        let offset = !emitted / shift_every in
        incr emitted;
        (offset + Zipf.sample z rng) mod pages
  | Mixture parts ->
      let weights = Array.of_list (List.map fst parts) in
      let samplers =
        Array.of_list (List.map (fun (_, p) -> make_sampler p rng) parts)
      in
      fun () ->
        let i = Ccache_util.Prng.categorical rng ~weights in
        samplers.(i) ()

type tenant_spec = {
  pattern : pattern;
  weight : float;  (** relative request rate of this tenant *)
}

(* Canonical fingerprint of a (seed, length, specs) triple for the
   on-disk trace cache.  Floats render with %h (exact bit pattern), so
   two spec values collide iff generation would be identical. *)
let rec pattern_fingerprint = function
  | Uniform { pages } -> Printf.sprintf "uniform(%d)" pages
  | Zipf { pages; skew } -> Printf.sprintf "zipf(%d,%h)" pages skew
  | Cycle { pages } -> Printf.sprintf "cycle(%d)" pages
  | Sequential_scan { pages; passes } -> Printf.sprintf "scan(%d,%d)" pages passes
  | Hot_cold { pages; hot_pages; hot_prob } ->
      Printf.sprintf "hotcold(%d,%d,%h)" pages hot_pages hot_prob
  | Drifting_zipf { pages; window; skew; shift_every } ->
      Printf.sprintf "drift(%d,%d,%h,%d)" pages window skew shift_every
  | Mixture parts ->
      Printf.sprintf "mix[%s]"
        (String.concat ";"
           (List.map
              (fun (w, p) -> Printf.sprintf "%h*%s" w (pattern_fingerprint p))
              parts))

let fingerprint ~seed ~length specs =
  Printf.sprintf "workload-v1 seed=%d length=%d tenants=[%s]" seed length
    (String.concat ";"
       (List.map
          (fun s -> Printf.sprintf "%h:%s" s.weight (pattern_fingerprint s.pattern))
          specs))

let tenant ?(weight = 1.0) pattern =
  require_finite ~field:"tenant weight" weight;
  if weight <= 0.0 then invalid_arg "Workloads.tenant: weight must be positive";
  { pattern; weight }

(** Generate a [length]-request multi-tenant trace.  Tenant [i]'s pages
    get user id [i]; each request picks a tenant proportionally to its
    weight, then asks the tenant's sampler for a page id. *)
let generate ~seed ~length specs =
  if specs = [] then invalid_arg "Workloads.generate: no tenants";
  if length < 0 then invalid_arg "Workloads.generate: negative length";
  (* generation is a pure function of (seed, length, specs), which is
     exactly what makes the on-disk memoisation sound *)
  Trace_cache.memoize ~fingerprint:(fingerprint ~seed ~length specs) (fun () ->
      let rng = Ccache_util.Prng.create ~seed in
      let specs = Array.of_list specs in
      let n_users = Array.length specs in
      let weights = Array.map (fun s -> s.weight) specs in
      let samplers =
        Array.map
          (fun s -> make_sampler s.pattern (Ccache_util.Prng.split rng))
          specs
      in
      let requests =
        Array.init length (fun _ ->
            let u = Ccache_util.Prng.categorical rng ~weights in
            Page.make ~user:u ~id:(samplers.(u) ()))
      in
      Trace.of_pages ~n_users requests)

(** Single-tenant convenience wrapper. *)
let generate_single ~seed ~length pattern =
  generate ~seed ~length [ tenant pattern ]

(** Phased generation (tenant churn): each phase runs its own tenant
    specs for its duration; all phases must describe the same number
    of tenants (a tenant "departing" is modelled by a tiny weight).
    Samplers restart at each phase boundary, modelling a working-set
    reset on reactivation. *)
let generate_phases ~seed phases =
  if phases = [] then invalid_arg "Workloads.generate_phases: no phases";
  let n_users =
    match phases with
    | (specs, _) :: _ -> List.length specs
    | [] -> assert false
  in
  List.iter
    (fun (specs, duration) ->
      if List.length specs <> n_users then
        invalid_arg "Workloads.generate_phases: phases disagree on tenant count";
      if duration < 0 then invalid_arg "Workloads.generate_phases: negative duration")
    phases;
  let pieces =
    List.mapi
      (fun i (specs, duration) ->
        generate ~seed:(seed + (7919 * i)) ~length:duration specs)
      phases
  in
  match pieces with
  | first :: rest -> List.fold_left Trace.append first rest
  | [] -> assert false

(** Diurnal-style churn: [cycles] repetitions of a two-phase pattern
    where the tenant set alternates between a "day" mix (all tenants
    active) and a "night" mix (only the [night_tenants] first tenants
    remain chatty; the rest idle at weight epsilon). *)
let day_night ~day ~night_tenants ~phase_length ~cycles =
  if night_tenants <= 0 || night_tenants > List.length day then
    invalid_arg "Workloads.day_night: bad night tenant count";
  if cycles <= 0 || phase_length <= 0 then
    invalid_arg "Workloads.day_night: bad cycle shape";
  let night =
    List.mapi
      (fun i spec ->
        if i < night_tenants then spec else { spec with weight = 1e-6 })
      day
  in
  List.concat
    (List.init cycles (fun _ -> [ (day, phase_length); (night, phase_length) ]))

(* ------------------------------------------------------------------ *)
(* Canned scenario builders used across examples and experiments       *)
(* ------------------------------------------------------------------ *)

(** [n] identical Zipf tenants — the symmetric multi-tenancy baseline. *)
let symmetric_zipf ~tenants ~pages_per_tenant ~skew =
  List.init tenants (fun _ -> tenant (Zipf { pages = pages_per_tenant; skew }))

(** SQLVM-style mix: a few large skewed OLTP-ish tenants, one scan-heavy
    tenant and one small hot-set tenant, with unequal request rates.
    Mirrors the workload archetypes of the companion VLDB paper. *)
let sqlvm_mix ~scale =
  if scale <= 0 then invalid_arg "Workloads.sqlvm_mix: scale must be positive";
  [
    tenant ~weight:4.0 (Zipf { pages = 64 * scale; skew = 0.9 });
    tenant ~weight:2.0 (Zipf { pages = 32 * scale; skew = 0.7 });
    tenant ~weight:1.5
      (Sequential_scan { pages = 48 * scale; passes = 4 });
    tenant ~weight:2.5
      (Hot_cold { pages = 40 * scale; hot_pages = 4 * scale; hot_prob = 0.85 });
    tenant ~weight:1.0
      (Drifting_zipf
         { pages = 50 * scale; window = 10 * scale; skew = 0.8; shift_every = 60 });
  ]

(** The classical deterministic LRU nemesis: one tenant cycling over
    [k + 1] pages. *)
let lru_nemesis ~k = [ tenant (Cycle { pages = k + 1 }) ]
