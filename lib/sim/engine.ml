(** Shared-cache simulation engine.

    Replays a trace against a policy, owning the cache set and all
    accounting.  Guarantees enforced here, independent of the policy:

    - the cache never exceeds [k] pages;
    - a victim returned by the policy is actually cached and is not the
      incoming page;
    - per-user hit/miss/eviction counts are conserved
      (hits + misses = requests; per-page insertions = evictions +
      still-cached).

    The optional [~flush:true] mode implements the paper's terminal
    dummy user (Section 2.1): k final requests by an infinite-cost user
    whose pages can never be evicted, forcing every real page out of
    the cache so that evictions equal misses for the real users.
    Because the dummy pages are never eviction candidates, the engine
    realises them without inserting anything: each flush step asks the
    policy for a victim (only real pages are cached, so any answer is
    valid) and evicts it — observationally identical to pinning
    infinite-cost dummy pages, and it works for every policy
    unmodified. *)

open Ccache_trace

type event =
  | Hit of { pos : int; page : Page.t }
  | Miss_insert of { pos : int; page : Page.t }
      (** compulsory or capacity-free miss: inserted without eviction *)
  | Miss_evict of { pos : int; page : Page.t; victim : Page.t }

type result = {
  policy : string;
  k : int;
  trace_length : int;
  n_users : int;  (** real users, excluding any flush dummy *)
  hits : int;
  misses_per_user : int array;
  evictions_per_user : int array;
  final_cache : Page.t list;
}

let misses r = Array.fold_left ( + ) 0 r.misses_per_user
let evictions r = Array.fold_left ( + ) 0 r.evictions_per_user

let miss_ratio r =
  if r.trace_length = 0 then 0.0
  else float_of_int (misses r) /. float_of_int r.trace_length

exception Policy_error of string

(* [@@effects.cold]: an unconditional raise, so the message formatting
   never allocates on a path that returns — callers keep their
   [no_alloc] contracts. *)
let[@effects.cold] policy_error fmt =
  Printf.ksprintf (fun s -> raise (Policy_error s)) fmt

(** Run [policy] on [trace] with cache size [k] and per-user [costs].

    @param flush append the terminal dummy-user flush (default false).
    @param on_event called for every decision, in trace order.
    @param index reuse a prebuilt index (otherwise built on demand only
           if the policy needs the future). *)
(* Post-run accounting into the observability sinks.  Counters are
   per-policy; the per-tenant histograms record one observation per
   user per run, i.e. the distribution of misses/evictions across
   tenants — the charging data Young-style loose-competitiveness
   accounting wants per step-window. *)
let record_obs r =
  let module M = Ccache_obs.Metrics in
  let p = r.policy in
  M.incr ~by:r.trace_length ("engine/" ^ p ^ "/requests");
  M.incr ~by:r.hits ("engine/" ^ p ^ "/hits");
  M.incr ~by:(misses r) ("engine/" ^ p ^ "/misses");
  M.incr ~by:(evictions r) ("engine/" ^ p ^ "/evictions");
  Array.iter
    (fun m -> M.observe ("engine/" ^ p ^ "/misses_per_user") (float_of_int m))
    r.misses_per_user;
  Array.iter
    (fun e -> M.observe ("engine/" ^ p ^ "/evictions_per_user") (float_of_int e))
    r.evictions_per_user

(** Stepping form of the engine: [init] builds the per-run state,
    [step] replays one trace position, [finish] runs the optional
    terminal flush and assembles the {!result}.  {!replay} below is
    exactly [init] + a [step] loop + [finish]; the split exists so the
    lower-bound adversary and the multipool engine's pools can hold an
    engine between requests and advance it one request at a time.  The
    state is one record of flat arrays and mutable counters.

    The cache set is keyed by the trace's dense ids: one byte per
    distinct page, set while the page is cached, plus an occupancy
    counter.  A request is then two array reads and a byte test, with
    no hashing; only a victim, which the policy names as a page, goes
    through the trace's interner to find its byte. *)
module Step = struct
  module Interner = Ccache_util.Interner

  type t = {
    policy : Policy.t;
    trace : Trace.t;
    dense : int array;
        (** [Trace.dense trace], hoisted so the per-request hot loop
            indexes local arrays instead of re-entering [Trace] *)
    dict : Page.t array;  (** [Trace.pages trace], hoisted likewise *)
    ranks : Interner.t;
        (** packed page -> dense id: the trace's interner, or, for a
            state built over an empty trace, a private one that [feed]
            interns into *)
    feeding : bool;  (** built over an empty trace: [feed] is allowed *)
    mutable cached : Bytes.t;  (** byte [d] is ['\001'] iff dense id [d] is cached *)
    mutable occupancy : int;
    k : int;
    real_users : int;
    h : Policy.handlers;
    misses_per_user : int array;
    evictions_per_user : int array;
    mutable hits : int;
    mutable fed : int;  (** requests replayed so far (= next position) *)
    flush : bool;
    on_event : (event -> unit) option;
  }

  let init ?(flush = false) ?on_event ?index ~k ~costs policy trace =
    let real_users = Trace.n_users trace in
    if Array.length costs <> real_users then
      invalid_arg "Engine.run: costs array must have one entry per user";
    let index =
      match index with
      | Some idx -> Some idx
      | None ->
          if Policy.needs_future policy then Some (Trace.Index.build trace)
          else None
    in
    let config = Policy.Config.make ?index ~k ~costs () in
    let h = Policy.instantiate policy config in
    (* A state over an empty trace is fed its requests one at a time:
       it interns them into its own interner (the trace is shared and
       never written) and its cache set grows amortised.  The size of
       the set never depends on [k], so a [k] the trace cannot fill
       costs nothing. *)
    let feeding = Trace.length trace = 0 in
    {
      policy;
      trace;
      dense = Trace.dense trace;
      dict = Trace.pages trace;
      ranks =
        (if feeding then Interner.create ~capacity:16 else Trace.interner trace);
      feeding;
      cached = Bytes.make (if feeding then 16 else Trace.n_pages trace) '\000';
      occupancy = 0;
      k;
      real_users;
      h;
      misses_per_user = Array.make real_users 0;
      evictions_per_user = Array.make real_users 0;
      hits = 0;
      fed = 0;
      flush;
      on_event;
    }

  let length t = Trace.length t.trace

  let is_cached t d = Bytes.get t.cached d <> '\000' [@@inline]

  let cache_add t d =
    Bytes.set t.cached d '\001';
    t.occupancy <- t.occupancy + 1
    [@@inline]

  let cache_remove t d =
    Bytes.set t.cached d '\000';
    t.occupancy <- t.occupancy - 1
    [@@inline]

  (* Dense id of a cached page, or -1 if it is not cached (or was never
     requested). *)
  let cached_rank t page =
    let d = Interner.find t.ranks (Page.pack page) in
    if d >= 0 && is_cached t d then d else -1
    [@@inline]

  (* Event records are built inside the [Some] branches only, so runs
     without a listener allocate nothing per decision; the
     [@effects.allow "alloc"] masks scope that exemption to exactly
     those branches.

     [apply] is the decision body shared by [step] (trace replay) and
     [feed] (requests chosen one at a time by the lower-bound
     adversary): both spellings run the exact same cache and accounting
     code, so a fed run is an ordinary engine run.  [d] is the dense id
     of [page]. *)
  let apply t pos d page =
    t.fed <- pos + 1;
    let h = t.h in
    if is_cached t d then begin
      t.hits <- t.hits + 1;
      h.Policy.on_hit ~pos page;
      match t.on_event with
      | Some f -> (f (Hit { pos; page }) [@effects.allow "alloc"])
      | None -> ()
    end
    else begin
      t.misses_per_user.(Page.user page) <-
        t.misses_per_user.(Page.user page) + 1;
      let occ = t.occupancy in
      if occ >= t.k || (occ > 0 && h.Policy.wants_evict ~pos ~incoming:page)
      then begin
        let victim = h.Policy.choose_victim ~pos ~incoming:page in
        (* the incoming page is not cached on a miss, so this test also
           rejects a victim equal to it *)
        let v = cached_rank t victim in
        if v < 0 then
          policy_error "%s: victim %s is not cached (pos %d)"
            (Policy.name t.policy) (Page.to_string victim) pos;
        cache_remove t v;
        t.evictions_per_user.(Page.user victim) <-
          t.evictions_per_user.(Page.user victim) + 1;
        h.Policy.on_evict ~pos victim;
        cache_add t d;
        h.Policy.on_insert ~pos page;
        match t.on_event with
        | Some f -> (f (Miss_evict { pos; page; victim }) [@effects.allow "alloc"])
        | None -> ()
      end
      else begin
        cache_add t d;
        h.Policy.on_insert ~pos page;
        match t.on_event with
        | Some f -> (f (Miss_insert { pos; page }) [@effects.allow "alloc"])
        | None -> ()
      end;
      if t.occupancy > t.k then
        policy_error "%s: cache exceeded k=%d (pos %d)" (Policy.name t.policy)
          t.k pos
    end
    [@@effects.no_alloc] [@@effects.deterministic]

  let step t pos =
    let d = t.dense.(pos) in
    apply t pos d t.dict.(d)
    [@@effects.no_alloc] [@@effects.deterministic]

  (* Amortised doubling of a fed state's cache set, forgiven to [feed]
     under [@@effects.amortized_alloc] as in [Int_tbl]. *)
  let[@effects.amortized_alloc] grow t =
    let bigger = Bytes.make (2 * Bytes.length t.cached) '\000' in
    Bytes.blit t.cached 0 bigger 0 (Bytes.length t.cached);
    t.cached <- bigger

  let feed t page =
    if not t.feeding then
      invalid_arg "Engine.Step.feed: state built over a non-empty trace";
    let d = Interner.intern t.ranks (Page.pack page) in
    if d >= Bytes.length t.cached then grow t;
    apply t t.fed d page
    [@@effects.no_alloc] [@@effects.deterministic]

  (* An eviction between requests, ordered by the caller rather than
     by the policy: the multipool rebalancer drops a migrated tenant's
     pages this way.  The policy hears it at the next request's
     position. *)
  let evict t page =
    let d = cached_rank t page in
    if d < 0 then
      invalid_arg ("Engine.Step.evict: " ^ Page.to_string page ^ " is not cached");
    cache_remove t d;
    t.evictions_per_user.(Page.user page) <-
      t.evictions_per_user.(Page.user page) + 1;
    t.h.Policy.on_evict ~pos:t.fed page

  (* Terminal flush: the dummy user's k requests evict every remaining
     real page; dummy pages are pinned so they are never inserted.  Each
     request evicts one page, so the requests after the cache empties
     do nothing and are not run: the loop is bounded by the cache, not
     by k. *)
  let finish t =
    (* [fed] equals the trace length after a complete trace replay; it
       exceeds it (trivially: the trace is empty) for dynamic states
       driven through [feed]. *)
    let n = max (Trace.length t.trace) t.fed in
    if t.flush then begin
      let step = ref 0 in
      while t.occupancy > 0 && !step < t.k do
        let pos = n + !step in
        let dummy = Page.make ~user:t.real_users ~id:!step in
        let victim = t.h.Policy.choose_victim ~pos ~incoming:dummy in
        let v = cached_rank t victim in
        if v < 0 then
          policy_error "%s: flush victim %s is not cached"
            (Policy.name t.policy) (Page.to_string victim);
        cache_remove t v;
        t.evictions_per_user.(Page.user victim) <-
          t.evictions_per_user.(Page.user victim) + 1;
        t.h.Policy.on_evict ~pos victim;
        (match t.on_event with
        | Some f -> f (Miss_evict { pos; page = dummy; victim })
        | None -> ());
        incr step
      done;
      if t.occupancy > 0 then
        policy_error "%s: flush left %d pages cached (need k >= cache)"
          (Policy.name t.policy) t.occupancy
    end;
    let final_cache = ref [] in
    for d = Bytes.length t.cached - 1 downto 0 do
      if is_cached t d then
        final_cache := Page.unpack (Interner.key t.ranks d) :: !final_cache
    done;
    {
      policy = Policy.name t.policy;
      k = t.k;
      trace_length = n;
      n_users = t.real_users;
      hits = t.hits;
      misses_per_user = t.misses_per_user;
      evictions_per_user = t.evictions_per_user;
      final_cache = List.sort Page.compare !final_cache;
    }
end

(* The one trace-replay loop: {!run}, the sharded service, ALG-CONT's
   dual recording and the (CP) rounding all go through it. *)
let replay ?flush ?on_event ?index ~k ~costs policy trace =
  let st = Step.init ?flush ?on_event ?index ~k ~costs policy trace in
  for pos = 0 to Step.length st - 1 do
    Step.step st pos
  done;
  Step.finish st

(* Exported for the sharded service, which computes shard results
   through {!replay} and must then account them exactly as {!run} would
   have. *)
let record_result_obs = record_obs

let run ?flush ?on_event ?index ~k ~costs policy trace =
  if not (Ccache_obs.Control.enabled ()) then
    replay ?flush ?on_event ?index ~k ~costs policy trace
  else
    Ccache_obs.Span.with_ ~cat:"engine"
      ~args:
        [
          ("policy", Ccache_obs.Sink.Str (Policy.name policy));
          ("k", Ccache_obs.Sink.Int k);
          ("requests", Ccache_obs.Sink.Int (Trace.length trace));
        ]
      "engine.run"
      (fun () ->
        let r = replay ?flush ?on_event ?index ~k ~costs policy trace in
        record_obs r;
        r)

(** Run and also collect the full decision log (for invariant checking
    and tests). *)
let run_logged ?flush ?index ~k ~costs policy trace =
  let log = ref [] in
  let result =
    run ?flush ?index ~on_event:(fun ev -> log := ev :: !log) ~k ~costs policy trace
  in
  (result, List.rev !log)
