(** The offline comparator of the paper's lower-bound proof (Section 4).

    Specialised to the Theorem 1.4 instance shape — n users, one page
    each, cache size k = n - 1 — the schedule is:

    - split the request sequence into batches of length
      ceil((n-1)/2);
    - at the start of each batch, look at the batch's requests and
      evict one page that is (a) currently cached, (b) not requested in
      the batch, and (c) has the fewest evictions so far (ties by page
      order); the freed slot absorbs the batch's single "new" page, so
      no other eviction happens during the batch.

    This costs at most one eviction per batch and spreads evictions
    evenly, giving total cost <= n * (4T/n^2)^beta against which the
    online algorithm's >= n * (T/n)^beta is measured.

    [run] validates the instance shape (single page per user) and
    simulates the schedule, returning per-user miss counts.  The first
    |cache| requests that merely warm the cache are handled naturally:
    eviction only starts once the cache is full. *)

open Ccache_trace

type result = {
  misses_per_user : int array;
  evictions_per_user : int array;
  batch_length : int;
  batches : int;
}

let run ~k trace =
  let n_users = Trace.n_users trace in
  let pages = Trace.distinct_pages trace in
  List.iter
    (fun p ->
      if Page.id p <> 0 then
        invalid_arg "Batch_offline.run: expects one page per user (id 0)")
    pages;
  if k < 1 then invalid_arg "Batch_offline.run: k must be >= 1";
  let batch_length = Stdlib.max 1 ((n_users - 1 + 1) / 2) in
  let n = Trace.length trace in
  let cached = Array.make n_users false in
  let cached_count = ref 0 in
  let misses = Array.make n_users 0 in
  let evictions = Array.make n_users 0 in
  let batches = ref 0 in
  let pos = ref 0 in
  while !pos < n do
    let batch_end = Stdlib.min n (!pos + batch_length) in
    (* users requested in this batch *)
    let in_batch = Array.make n_users false in
    for q = !pos to batch_end - 1 do
      in_batch.(Page.user (Trace.request trace q)) <- true
    done;
    incr batches;
    (* make room proactively: if the cache is full and some batch
       request would miss, evict the least-evicted cached page not in
       the batch *)
    if !cached_count >= k then begin
      let would_miss = ref false in
      for q = !pos to batch_end - 1 do
        if not cached.(Page.user (Trace.request trace q)) then would_miss := true
      done;
      if !would_miss then begin
        let candidate = ref (-1) in
        for u = n_users - 1 downto 0 do
          if cached.(u) && not in_batch.(u) then
            if !candidate = -1 || evictions.(u) <= evictions.(!candidate) then
              candidate := u
        done;
        match !candidate with
        | -1 ->
            (* batch touches >= k distinct cached users: impossible in
               the Theorem 1.4 shape (batch length <= (n-1)/2 < k) *)
            invalid_arg "Batch_offline.run: no eviction candidate (bad instance shape)"
        | u ->
            cached.(u) <- false;
            decr cached_count;
            evictions.(u) <- evictions.(u) + 1
      end
    end;
    (* replay the batch *)
    for q = !pos to batch_end - 1 do
      let u = Page.user (Trace.request trace q) in
      if not cached.(u) then begin
        misses.(u) <- misses.(u) + 1;
        if !cached_count >= k then begin
          (* second miss within a batch: only possible if the batch has
             two distinct new users, which the shape forbids; fall back
             to evicting the least-evicted non-batch user to stay total *)
          let candidate = ref (-1) in
          for v = n_users - 1 downto 0 do
            if cached.(v) && not in_batch.(v) then
              if !candidate = -1 || evictions.(v) <= evictions.(!candidate) then
                candidate := v
          done;
          let v = if !candidate >= 0 then !candidate else (
            let any = ref (-1) in
            for w = n_users - 1 downto 0 do if cached.(w) then any := w done;
            !any)
          in
          cached.(v) <- false;
          decr cached_count;
          evictions.(v) <- evictions.(v) + 1
        end;
        cached.(u) <- true;
        incr cached_count
      end
    done;
    pos := batch_end
  done;
  { misses_per_user = misses; evictions_per_user = evictions;
    batch_length; batches = !batches }

(** Total cost of the batch schedule under [costs]. *)
let cost ~costs r = Ccache_cost.Cost_function.total costs r.misses_per_user
