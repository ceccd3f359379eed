(** Contract evaluation over the fixpoint results.

    Four rule families, all reported as {!Tool_report.finding}s:

    - [contract-pure] / [contract-no_alloc] / [contract-deterministic]:
      a declared contract whose forbidden classes intersect the node's
      outward effect set;
    - [contract-missing]: a hot-path node from the required table below
      exists but does not declare (at least) the listed contracts — or
      no longer exists at all, which usually means a rename silently
      dropped it out of checking;
    - [direct-clock]: a node other than the sanctioned sink reads the
      clock *directly* (seeded [time], as opposed to inheriting it):
      [Ccache_obs.Clock.wall] is the single place in the tree allowed
      to call [Unix.gettimeofday] and friends;
    - [pool-task-*]: effects reachable from a closure handed to
      [Domain_pool]: [time]/[rand] make cell results depend on
      scheduling ([pool-task-effects]), transitive writes to module
      state that is not a sanctioned sink race across domains
      ([pool-task-global-write]), and direct mutation of idents
      captured from the enclosing scope defeats the pool's
      determinism-by-isolation design ([pool-task-capture]). *)

open Effects_defs

(** The hot-path nodes that MUST carry contracts (the per-request work
    of the fast ALG-DISCRETE stack).  Checking is two-sided: the
    declaration must exist, and the fixpoint must prove it. *)
let required : (string * contract list) list =
  [
    ("Ccache_sim.Engine.Step.step", [ No_alloc; Deterministic ]);
    (* the Theorem 1.4 adversary's per-request call *)
    ("Ccache_sim.Engine.Step.feed", [ No_alloc; Deterministic ]);
    (* the serve plan: replay and resume rebuild it, so it must not
       depend on time, randomness or domains *)
    ("Ccache_serve.Scheduler.build", [ Deterministic ]);
    ("Ccache_core.Alg_fast.touch", [ No_alloc; Deterministic ]);
    ("Ccache_core.Alg_fast.evict", [ No_alloc; Deterministic ]);
    (* the cached marginals behind ALG-DISCRETE-FAST, Landlord and
       convex-Belady, and Landlord's per-request credit *)
    ("Ccache_cost.Cost_function.Marginals.advance", [ No_alloc; Deterministic ]);
    ("Ccache_policies.Landlord.set_credit", [ No_alloc; Deterministic ]);
    ("Ccache_util.Indexed_heap.set", [ No_alloc; Deterministic ]);
    ("Ccache_util.Indexed_heap.add", [ No_alloc; Deterministic ]);
    ("Ccache_util.Indexed_heap.remove", [ No_alloc; Deterministic ]);
    ("Ccache_util.Indexed_heap.update", [ No_alloc; Deterministic ]);
    ("Ccache_util.Indexed_heap.priority", [ No_alloc; Deterministic ]);
    ("Ccache_util.Indexed_heap.mem", [ No_alloc; Deterministic ]);
    ("Ccache_util.Indexed_heap.min_key_exn", [ No_alloc; Deterministic ]);
    ("Ccache_util.Indexed_heap.min_prio_exn", [ No_alloc; Deterministic ]);
    (* first-touch ranks: the engine and every policy find pages in
       the trace's interner on every request *)
    ("Ccache_util.Interner.intern", [ No_alloc; Deterministic ]);
    ("Ccache_util.Interner.find", [ No_alloc; Deterministic ]);
    (* the cached-rank sets of random, randomized marking and
       convex-Belady *)
    ("Ccache_util.Rank_set.add", [ No_alloc; Deterministic ]);
    ("Ccache_util.Rank_set.remove", [ No_alloc; Deterministic ]);
    ("Ccache_util.Rank_set.mem", [ No_alloc; Deterministic ]);
    (* the recency and ghost lists of the list-backed policies *)
    ("Ccache_util.Rank_list.push_front", [ No_alloc; Deterministic ]);
    ("Ccache_util.Rank_list.push_back", [ No_alloc; Deterministic ]);
    ("Ccache_util.Rank_list.remove", [ No_alloc; Deterministic ]);
    ("Ccache_util.Rank_list.owner", [ No_alloc; Deterministic ]);
    ("Ccache_trace.Page.pack", [ Pure; No_alloc ]);
    ("Ccache_trace.Page.unpack", [ Pure; No_alloc ]);
    (* the zero-copy trace substrate: per-request iteration and the
       dense (flat-array) index lookups behind every policy decision *)
    ("Ccache_trace.Trace.request", [ No_alloc; Deterministic ]);
    ("Ccache_trace.Trace.Index.interval_index", [ No_alloc; Deterministic ]);
    ("Ccache_trace.Trace.Index.next_use", [ No_alloc; Deterministic ]);
    ("Ccache_trace.Trace.Index.distinct_upto", [ No_alloc; Deterministic ]);
    ("Ccache_trace.Trace_binary.dense_at", [ No_alloc; Deterministic ]);
  ]

(** Nodes allowed to seed [time] directly. *)
let sanctioned_time = [ "Ccache_obs.Clock.wall" ]

let rules : (string * string) list =
  [
    ("contract-pure", "declared [@@effects.pure] but effects reach the node");
    ("contract-no_alloc", "declared [@@effects.no_alloc] but allocation reaches the node");
    ("contract-deterministic",
     "declared [@@effects.deterministic] but nondeterminism reaches the node");
    ("contract-missing", "hot-path node lacks its required effect contract");
    ("direct-clock", "direct clock read outside the sanctioned Clock.wall sink");
    ("pool-task-effects", "Domain_pool task reaches time or randomness");
    ("pool-task-global-write", "Domain_pool task writes unsanctioned module state");
    ("pool-task-capture", "Domain_pool task mutates captured local state");
  ]

let finding ~(loc : Location.t) ~source ~rule msg : Tool_report.finding =
  let p = loc.loc_start in
  {
    file = source;
    line = (if p.pos_lnum > 0 then p.pos_lnum else 1);
    col = (if p.pos_cnum >= p.pos_bol then p.pos_cnum - p.pos_bol else 0);
    rule;
    msg;
  }

(** Transitive effect set of one pool task closure. *)
let pool_task_effects graph result ~extern (site : Effects_extract.pool_site) =
  List.fold_left
    (fun acc (callee, mask) ->
      Effect_set.union acc
        (Effect_set.diff
           (Effects_graph.visible graph result ~extern callee)
           mask))
    site.Effects_extract.site_seed site.Effects_extract.site_calls

(* [check_required]: verify the {!required} hot-path table (off for
   runs over trees that legitimately do not contain those nodes, e.g.
   the test fixture library). *)
let check ~check_required ~(defs : (string, def) Hashtbl.t)
    ~(graph : Effects_graph.t) ~(result : Effects_graph.result) ~extern
    ~(pool_sites : Effects_extract.pool_site list) : Tool_report.finding list =
  let out = ref [] in
  let add f = out := f :: !out in
  let each_def f =
    Hashtbl.fold (fun _ d l -> d :: l) defs []
    |> List.sort (fun a b -> String.compare a.id b.id)
    |> List.iter f
  in
  (* declared contracts vs fixpoint *)
  each_def (fun d ->
      let outward = Effects_graph.effects result d.id in
      List.iter
        (fun c ->
          let bad = Effect_set.inter (forbidden c) outward in
          if not (Effect_set.is_empty bad) then
            add
              (finding ~loc:d.loc ~source:d.source
                 ~rule:("contract-" ^ contract_name c)
                 (Printf.sprintf "%s declares %s but reaches {%s}" d.id
                    (contract_name c) (Effect_set.to_string bad))))
        d.contracts);
  (* required hot-path contracts are actually declared *)
  if check_required then
    List.iter
    (fun (id, needed) ->
      match Hashtbl.find_opt defs id with
      | None ->
          add
            {
              Tool_report.file = "EFFECTS";
              line = 1;
              col = 0;
              rule = "contract-missing";
              msg =
                Printf.sprintf
                  "hot-path node %s not found in the call graph (renamed or \
                   no longer compiled?)"
                  id;
            }
      | Some d ->
          List.iter
            (fun c ->
              if not (List.mem c d.contracts) then
                add
                  (finding ~loc:d.loc ~source:d.source ~rule:"contract-missing"
                     (Printf.sprintf "%s must declare [@@effects.%s]" id
                        (contract_name c))))
            needed)
    required;
  (* sanctioned clock sink.  A *direct* read is a [time] class arriving
     at the node itself: either seeded primitively or through an edge
     to a time-classified extern (clock reads always enter the graph as
     extern calls — [Unix.gettimeofday] has no node).  Inheriting
     [time] from another node is not direct; only the sink itself is
     held to this rule. *)
  let reads_clock_directly (n : Effects_graph.node) =
    Effect_set.mem n.Effects_graph.seed Effect_set.Time
    || List.exists
         (fun (callee, mask) ->
           Effects_graph.find_opt graph callee = None
           && Effect_set.mem
                (Effect_set.diff (extern callee) mask)
                Effect_set.Time)
         n.Effects_graph.calls
  in
  each_def (fun d ->
      match Effects_graph.find_opt graph d.id with
      | Some n
        when reads_clock_directly n && not (List.mem d.id sanctioned_time) ->
          add
            (finding ~loc:d.loc ~source:d.source ~rule:"direct-clock"
               (Printf.sprintf
                  "%s reads the clock directly; route it through \
                   Ccache_obs.Clock.wall"
                  d.id))
      | _ -> ());
  (* Domain_pool task closures *)
  List.iter
    (fun (site : Effects_extract.pool_site) ->
      let effs = pool_task_effects graph result ~extern site in
      let flag rule cls what =
        if Effect_set.mem effs cls then
          add
            (finding ~loc:site.site_loc ~source:site.site_source ~rule
               (Printf.sprintf "task closure passed to Domain_pool.%s in %s %s"
                  site.site_fn site.site_in what))
      in
      flag "pool-task-effects" Effect_set.Time "reads the clock";
      flag "pool-task-effects" Effect_set.Rand "consumes ambient randomness";
      flag "pool-task-global-write" Effect_set.Gwrite
        "writes unsanctioned module-level state";
      if site.site_captured <> [] then
        add
          (finding ~loc:site.site_loc ~source:site.site_source
             ~rule:"pool-task-capture"
             (Printf.sprintf
                "task closure passed to Domain_pool.%s in %s mutates captured \
                 state: %s"
                site.site_fn site.site_in
                (String.concat ", " site.site_captured))))
    pool_sites;
  List.sort Tool_report.compare_finding !out
