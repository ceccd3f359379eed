(* Tests for ccache_trace: pages, traces + index, Zipf sampling,
   workload generators, IO round-trips and trace statistics. *)

open Ccache_trace
module W = Workloads
module Prng = Ccache_util.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let p u i = Page.make ~user:u ~id:i

(* ------------------------------------------------------------------ *)
(* Page                                                                *)
(* ------------------------------------------------------------------ *)

let test_page_basics () =
  let a = p 1 2 in
  checki "user" 1 (Page.user a);
  checki "id" 2 (Page.id a);
  checkb "equal" true (Page.equal a (p 1 2));
  checkb "not equal" false (Page.equal a (p 1 3));
  checkb "ordered by user first" true (Page.compare (p 0 99) (p 1 0) < 0);
  checkb "then by id" true (Page.compare (p 1 1) (p 1 2) < 0);
  Alcotest.check_raises "negative user"
    (Invalid_argument "Page.make: negative user") (fun () -> ignore (p (-1) 0))

let test_page_string_roundtrip () =
  let a = p 3 17 in
  checkb "printed form" true (Page.to_string a = "u3:p17");
  checkb "roundtrip" true
    (Scanf.sscanf (Page.to_string a) "u%d:p%d%!" (fun user id ->
         Page.equal (Page.make ~user ~id) a))

(* ------------------------------------------------------------------ *)
(* Trace + Index                                                       *)
(* ------------------------------------------------------------------ *)

(* sequence: a b a c b a   (users: a,c -> 0; b -> 1) *)
let sample_trace () =
  Trace.of_list ~n_users:2 [ p 0 0; p 1 0; p 0 0; p 0 1; p 1 0; p 0 0 ]

let test_trace_basics () =
  let t = sample_trace () in
  checki "length" 6 (Trace.length t);
  checki "users" 2 (Trace.n_users t);
  checki "distinct" 3 (List.length (Trace.distinct_pages t));
  checkb "first-touch order" true
    (Trace.distinct_pages t = [ p 0 0; p 1 0; p 0 1 ]);
  Alcotest.check_raises "user out of range"
    (Invalid_argument "Trace.of_pages: page u5:p0 outside user range [0,2)")
    (fun () -> ignore (Trace.of_list ~n_users:2 [ p 5 0 ]))

let test_trace_index () =
  let t = sample_trace () in
  let idx = Trace.Index.build t in
  (* interval indices: a(1) b(1) a(2) c(1) b(2) a(3) *)
  checkb "intervals" true
    (List.init 6 (Trace.Index.interval_index idx) = [ 1; 1; 2; 1; 2; 3 ]);
  (* next use: a@0 -> 2, b@1 -> 4, a@2 -> 5, c@3 -> none, b@4 -> none, a@5 -> none *)
  checki "next of a@0" 2 (Trace.Index.next_use idx 0);
  checki "next of b@1" 4 (Trace.Index.next_use idx 1);
  checki "c@3 last" Int.max_int (Trace.Index.next_use idx 3);
  checki "a@5 last" Int.max_int (Trace.Index.next_use idx 5);
  (* distinct counts: 1 2 2 3 3 3 *)
  checkb "distinct_upto" true
    (List.init 6 (Trace.Index.distinct_upto idx) = [ 1; 2; 2; 3; 3; 3 ])

let test_trace_append_flush () =
  let t = sample_trace () in
  let doubled = Trace.append t t in
  checki "appended" 12 (Trace.length doubled);
  let flushed = Trace.with_flush ~k:4 t in
  checki "flush adds k" 10 (Trace.length flushed);
  checki "flush adds dummy user" 3 (Trace.n_users flushed);
  (* dummy pages are fresh and owned by the dummy user *)
  for i = 6 to 9 do
    checki "dummy user id" 2 (Page.user (Trace.request flushed i))
  done

(* ------------------------------------------------------------------ *)
(* Trace against its earlier representation                            *)
(* ------------------------------------------------------------------ *)

(* The representation [Trace] replaced: the materialised [Page.t array]
   as the trace, with the dense interning computed on first demand and
   published through an [Atomic].  Kept as the oracle for the
   dictionary + dense-id form. *)
module Reference = struct
  module Interner = Ccache_util.Interner

  type interning = { dense : int array; ranks : Interner.t }

  type t = {
    requests : Page.t array;
    n_users : int;
    interning : interning option Atomic.t;
  }

  let length t = Array.length t.requests
  let n_users t = t.n_users
  let request t pos = t.requests.(pos)
  let requests t = t.requests

  let compute_interning requests =
    let ranks = Interner.create ~capacity:256 in
    let dense = Array.map (fun p -> Interner.intern ranks (Page.pack p)) requests in
    { dense; ranks }

  let interning t =
    match Atomic.get t.interning with
    | Some i -> i
    | None ->
        let i = compute_interning t.requests in
        Atomic.set t.interning (Some i);
        i

  let n_pages t = Interner.length (interning t).ranks
  let dense t = (interning t).dense
  let page_of_dense t d = Page.unpack (Interner.key (interning t).ranks d)

  let check_users ~n_users pages =
    Array.iter
      (fun p ->
        if Page.user p < 0 || Page.user p >= n_users then
          invalid_arg "Trace.of_pages: user out of range")
      pages

  let of_pages ~n_users pages =
    if n_users <= 0 then invalid_arg "Trace.of_pages: need at least one user";
    check_users ~n_users pages;
    { requests = Array.copy pages; n_users; interning = Atomic.make None }

  let of_list ~n_users pages = of_pages ~n_users (Array.of_list pages)

  let of_dense ~n_users ~pages ~dense =
    if n_users <= 0 then invalid_arg "Trace.of_dense: need at least one user";
    check_users ~n_users pages;
    let p = Array.length pages in
    let n = Array.length dense in
    let requests = Array.make n (Page.make ~user:0 ~id:0) in
    let seen = ref 0 in
    for pos = 0 to n - 1 do
      let d = dense.(pos) in
      if d < 0 || d >= p then invalid_arg "Trace.of_dense: rank out of range";
      if d > !seen then invalid_arg "Trace.of_dense: rank out of order"
      else if d = !seen then incr seen;
      requests.(pos) <- pages.(d)
    done;
    if !seen <> p then invalid_arg "Trace.of_dense: page never requested";
    let ranks = Interner.create ~capacity:p in
    Array.iteri
      (fun d page ->
        if Interner.intern ranks (Page.pack page) <> d then
          invalid_arg "Trace.of_dense: duplicate page")
      pages;
    {
      requests;
      n_users;
      interning = Atomic.make (Some { dense = Array.copy dense; ranks });
    }

  let append a b =
    if a.n_users <> b.n_users then invalid_arg "Trace.append: user-count mismatch";
    {
      requests = Array.append a.requests b.requests;
      n_users = a.n_users;
      interning = Atomic.make None;
    }

  let distinct_pages t = List.init (n_pages t) (page_of_dense t)

  let with_flush ~k t =
    if k <= 0 then invalid_arg "Trace.with_flush: k must be positive";
    let dummy = Array.init k (fun i -> Page.make ~user:t.n_users ~id:i) in
    {
      requests = Array.append t.requests dummy;
      n_users = t.n_users + 1;
      interning = Atomic.make None;
    }

  module Index = struct
    type t = {
      interval : int array;
      next_use : int array;
      distinct_upto : int array;
    }

    let build trace =
      let dense = (interning trace).dense in
      let p = n_pages trace in
      let n = Array.length trace.requests in
      let interval = Array.make n 0 in
      let next_use = Array.make n Int.max_int in
      let distinct_upto = Array.make n 0 in
      let counts = Array.make p 0 in
      let last_pos = Array.make p (-1) in
      let distinct = ref 0 in
      for pos = 0 to n - 1 do
        let d = dense.(pos) in
        counts.(d) <- counts.(d) + 1;
        interval.(pos) <- counts.(d);
        let prev = last_pos.(d) in
        if prev >= 0 then next_use.(prev) <- pos else incr distinct;
        last_pos.(d) <- pos;
        distinct_upto.(pos) <- !distinct
      done;
      { interval; next_use; distinct_upto }

    let interval_index t pos = t.interval.(pos)
    let next_use t pos = t.next_use.(pos)
    let distinct_upto t pos = t.distinct_upto.(pos)
  end
end

(* Every observation the two representations offer, on one trace. *)
let agrees (t : Trace.t) (r : Reference.t) =
  let n = Trace.length t in
  let it = Trace.Index.build t and ir = Reference.Index.build r in
  n = Reference.length r
  && Trace.n_users t = Reference.n_users r
  && Trace.requests t = Reference.requests r
  && List.for_all (fun pos -> Trace.request t pos = Reference.request r pos) (List.init n Fun.id)
  && Trace.dense t = Reference.dense r
  && Trace.n_pages t = Reference.n_pages r
  && Trace.distinct_pages t = Reference.distinct_pages r
  && List.for_all
       (fun d -> Trace.page_of_dense t d = Reference.page_of_dense r d)
       (List.init (Trace.n_pages t) Fun.id)
  && List.for_all
       (fun pos ->
         Trace.Index.interval_index it pos = Reference.Index.interval_index ir pos
         && Trace.Index.next_use it pos = Reference.Index.next_use ir pos
         && Trace.Index.distinct_upto it pos = Reference.Index.distinct_upto ir pos)
       (List.init n Fun.id)

(* Both constructions raise [Invalid_argument], or both succeed and
   agree. *)
let same_outcome f g =
  let attempt h = match h () with v -> Some v | exception Invalid_argument _ -> None in
  match (attempt f, attempt g) with
  | None, None -> true
  | Some t, Some r -> agrees t r
  | Some _, None | None, Some _ -> false

(* Random traces, each built through every constructor by both
   representations: [of_pages], [of_list], [of_dense] (from the
   reference's interned form, and with one rank corrupted), [append]
   and [with_flush]. *)
let reference_property =
  QCheck.Test.make ~name:"trace agrees with the reference representation"
    ~count:200
    QCheck.(
      quad (int_range 1 3)
        (small_list (pair small_nat small_nat))
        (small_list (pair small_nat small_nat))
        (triple (int_range 1 6) small_nat small_nat))
    (fun (n_users, xs, ys, (k, victim, rank)) ->
      (* about one page in ten names the user one past the range *)
      let page (u, i) =
        Page.make ~user:(if u > 90 then n_users else u mod n_users) ~id:(i mod 9)
      in
      let a = Array.of_list (List.map page xs) and b = Array.of_list (List.map page ys) in
      let ra () = Reference.of_pages ~n_users a and rb () = Reference.of_pages ~n_users b in
      let ta () = Trace.of_pages ~n_users a and tb () = Trace.of_pages ~n_users b in
      same_outcome ta ra
      && same_outcome
           (fun () -> Trace.of_list ~n_users (Array.to_list a))
           (fun () -> Reference.of_list ~n_users (Array.to_list a))
      && same_outcome
           (fun () -> Trace.append (ta ()) (tb ()))
           (fun () -> Reference.append (ra ()) (rb ()))
      && same_outcome
           (fun () -> Trace.with_flush ~k (ta ()))
           (fun () -> Reference.with_flush ~k (ra ()))
      &&
      match ra () with
      | exception Invalid_argument _ -> true
      | r ->
          (* [Trace.of_dense] takes its arrays over: hand it copies *)
          let of_dense pages dense () =
            Trace.of_dense ~n_users ~pages:(Array.copy pages) ~dense:(Array.copy dense)
          in
          let pages = Array.of_list (Reference.distinct_pages r) in
          let dense = Array.copy (Reference.dense r) in
          same_outcome (of_dense pages dense)
            (fun () -> Reference.of_dense ~n_users ~pages ~dense)
          &&
          (Array.length dense = 0
          ||
          let pos = victim mod Array.length dense in
          dense.(pos) <- (rank mod (Array.length pages + 2)) - 1;
          same_outcome (of_dense pages dense)
            (fun () -> Reference.of_dense ~n_users ~pages ~dense)))

(* [select t ids] builds the trace of a sequence of [t]'s dense ids by
   remapping them; it must equal [of_pages] of the same pages:
   dictionary, dense ids, users and the interner's rank of every page
   of [t]. *)
let select_property =
  let gen =
    let open QCheck.Gen in
    int_range 1 4 >>= fun n_users ->
    list_size (int_bound 300)
      (map2
         (fun user id -> Page.make ~user ~id)
         (int_bound (n_users - 1))
         (int_bound 60))
    >>= fun pages ->
    let t = Trace.of_list ~n_users pages in
    let last = Trace.n_pages t - 1 in
    (if last < 0 then return [||]
     else
       frequency
         [
           (1, return [||]);
           (4, array_size (int_bound 300) (int_bound last));
           (* one or two pages, repeated *)
           ( 2,
             pair (int_bound last) (int_bound last) >>= fun (a, b) ->
             array_size (int_range 1 50) (oneofl [ a; b ]) );
         ])
    >>= fun ids ->
    map (fun bad -> (t, ids, bad)) (oneofl [ -1; last + 1; last + 9; min_int; max_int ])
  in
  let print (t, ids, bad) =
    Printf.sprintf "users=%d trace=[%s] ids=[%s] bad=%d" (Trace.n_users t)
      (String.concat "," (Array.to_list (Array.map Page.to_string (Trace.requests t))))
      (String.concat "," (Array.to_list (Array.map string_of_int ids)))
      bad
  in
  QCheck.Test.make ~name:"select = of_pages on the selected pages" ~count:300
    (QCheck.make ~print gen) (fun (t, ids, bad) ->
      let module I = Ccache_util.Interner in
      let s = Trace.select t ids in
      let r =
        Trace.of_pages ~n_users:(Trace.n_users t)
          (Array.map (Trace.page_of_dense t) ids)
      in
      let rank tr page = I.find (Trace.interner tr) (Page.pack page) in
      let raises ids =
        match Trace.select t ids with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      Trace.pages s = Trace.pages r
      && Trace.dense s = Trace.dense r
      && Trace.n_users s = Trace.n_users r
      && I.length (Trace.interner s) = I.length (Trace.interner r)
      && Array.for_all (fun page -> rank s page = rank r page) (Trace.pages t)
      && raises (Array.append ids [| bad |])
      && raises (Array.append [| bad |] ids))

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_append_mismatch () =
  let a = Trace.of_list ~n_users:1 [ p 0 0 ] in
  let b = Trace.of_list ~n_users:2 [ p 1 0 ] in
  Alcotest.check_raises "user count"
    (Invalid_argument "Trace.append: user-count mismatch") (fun () ->
      ignore (Trace.append a b))

let test_zipf_validation () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~skew:1.0));
  Alcotest.check_raises "negative skew"
    (Invalid_argument "Zipf.create: negative skew") (fun () ->
      ignore (Zipf.create ~n:3 ~skew:(-1.0)));
  let z = Zipf.create ~n:3 ~skew:1.0 in
  Alcotest.check_raises "pmf range" (Invalid_argument "Zipf.pmf: rank out of range")
    (fun () -> ignore (Zipf.pmf z 3))

let test_zipf_pmf () =
  let z = Zipf.create ~n:5 ~skew:1.0 in
  let total = ref 0.0 in
  for i = 0 to 4 do
    total := !total +. Zipf.pmf z i
  done;
  checkf "pmf sums to 1" 1.0 !total;
  checkb "rank 0 most popular" true (Zipf.pmf z 0 > Zipf.pmf z 4)

let test_zipf_skew_zero_uniform () =
  let z = Zipf.create ~n:4 ~skew:0.0 in
  for i = 0 to 3 do
    checkf "uniform pmf" 0.25 (Zipf.pmf z i)
  done

let test_zipf_sampling_skew () =
  let z = Zipf.create ~n:100 ~skew:1.2 in
  let rng = Prng.create ~seed:1 in
  let counts = Array.make 100 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  checkb "head heavier than tail" true (counts.(0) > 10 * counts.(99));
  (* empirical frequency of rank 0 close to pmf *)
  let freq0 = float_of_int counts.(0) /. float_of_int n in
  checkb "matches pmf" true (Float.abs (freq0 -. Zipf.pmf z 0) < 0.01)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let test_workload_determinism () =
  let specs = W.sqlvm_mix ~scale:1 in
  let a = W.generate ~seed:5 ~length:500 specs in
  let b = W.generate ~seed:5 ~length:500 specs in
  checkb "same seed same trace" true (Trace.requests a = Trace.requests b);
  let c = W.generate ~seed:6 ~length:500 specs in
  checkb "different seed differs" true (Trace.requests a <> Trace.requests c)

let test_workload_cycle () =
  let t = W.generate_single ~seed:1 ~length:7 (W.Cycle { pages = 3 }) in
  let ids = Array.to_list (Array.map Page.id (Trace.requests t)) in
  checkb "cyclic" true (ids = [ 0; 1; 2; 0; 1; 2; 0 ])

let test_workload_scan () =
  let t =
    W.generate_single ~seed:1 ~length:8
      (W.Sequential_scan { pages = 3; passes = 2 })
  in
  let ids = Array.to_list (Array.map Page.id (Trace.requests t)) in
  (* two full passes then uniform re-reads within range *)
  checkb "scan prefix" true
    (List.filteri (fun i _ -> i < 6) ids = [ 0; 1; 2; 0; 1; 2 ]);
  List.iter (fun i -> checkb "wrap in range" true (i >= 0 && i < 3)) ids

let test_workload_hot_cold () =
  let t =
    W.generate_single ~seed:2 ~length:5000
      (W.Hot_cold { pages = 100; hot_pages = 5; hot_prob = 0.9 })
  in
  let hot = ref 0 in
  Array.iter (fun q -> if Page.id q < 5 then incr hot) (Trace.requests t);
  let frac = float_of_int !hot /. 5000.0 in
  checkb "hot fraction ~0.9" true (frac > 0.85 && frac < 0.95)

let test_workload_drift () =
  let t =
    W.generate_single ~seed:3 ~length:1000
      (W.Drifting_zipf { pages = 50; window = 10; skew = 1.0; shift_every = 100 })
  in
  (* early requests stay in the initial window; late ones have drifted *)
  let early = Array.sub (Trace.requests t) 0 100 in
  Array.iter (fun q -> checkb "early in window" true (Page.id q < 10)) early;
  let late = Array.sub (Trace.requests t) 900 100 in
  checkb "late drifted" true (Array.exists (fun q -> Page.id q >= 10) late)

let test_workload_mixture_and_weights () =
  let specs =
    [
      W.tenant ~weight:9.0 (W.Uniform { pages = 10 });
      W.tenant ~weight:1.0 (W.Uniform { pages = 10 });
    ]
  in
  let t = W.generate ~seed:4 ~length:10_000 specs in
  let counts = Array.make 2 0 in
  Array.iter (fun q -> counts.(Page.user q) <- counts.(Page.user q) + 1) (Trace.requests t);
  let ratio = float_of_int counts.(0) /. float_of_int counts.(1) in
  checkb "9:1 rate ratio" true (ratio > 7.0 && ratio < 11.5);
  (* mixture pattern validates and respects its parts' footprint *)
  let m = W.Mixture [ (1.0, W.Uniform { pages = 5 }); (1.0, W.Cycle { pages = 9 }) ] in
  W.validate_pattern m;
  checkb "mixture footprint" true
    (List.for_all
       (fun q -> Page.id q < 9)
       (Trace.distinct_pages (W.generate_single ~seed:5 ~length:500 m)))

let test_workload_validation () =
  Alcotest.check_raises "no tenants"
    (Invalid_argument "Workloads.generate: no tenants") (fun () ->
      ignore (W.generate ~seed:1 ~length:10 []));
  Alcotest.check_raises "bad pages"
    (Invalid_argument "Workloads: pattern needs pages > 0") (fun () ->
      ignore (W.generate_single ~seed:1 ~length:10 (W.Uniform { pages = 0 })));
  Alcotest.check_raises "bad hot prob"
    (Invalid_argument "Workloads: hot_prob outside [0,1]") (fun () ->
      ignore
        (W.generate_single ~seed:1 ~length:10
           (W.Hot_cold { pages = 10; hot_pages = 2; hot_prob = 1.5 })))

(* NaN passes sign checks silently (comparisons with NaN are false), so
   non-finite workload parameters get a dedicated rejection naming the
   field. *)
let test_workload_float_hygiene () =
  Alcotest.check_raises "nan skew"
    (Invalid_argument "Workloads: skew = nan is not finite") (fun () ->
      ignore
        (W.generate_single ~seed:1 ~length:10
           (W.Zipf { pages = 10; skew = Float.nan })));
  Alcotest.check_raises "inf drifting skew"
    (Invalid_argument "Workloads: skew = inf is not finite") (fun () ->
      W.validate_pattern
        (W.Drifting_zipf
           { pages = 10; window = 5; skew = Float.infinity; shift_every = 3 }));
  Alcotest.check_raises "nan hot_prob"
    (Invalid_argument "Workloads: hot_prob = nan is not finite") (fun () ->
      W.validate_pattern
        (W.Hot_cold { pages = 10; hot_pages = 2; hot_prob = Float.nan }));
  Alcotest.check_raises "nan mixture weight"
    (Invalid_argument "Workloads: mixture weight = nan is not finite")
    (fun () ->
      W.validate_pattern
        (W.Mixture [ (Float.nan, W.Uniform { pages = 2 }) ]));
  Alcotest.check_raises "nan tenant weight"
    (Invalid_argument "Workloads: tenant weight = nan is not finite")
    (fun () -> ignore (W.tenant ~weight:Float.nan (W.Uniform { pages = 2 })))

let test_workload_phases () =
  let phase_a = [ W.tenant (W.Cycle { pages = 2 }); W.tenant ~weight:1e-9 (W.Uniform { pages = 2 }) ] in
  let phase_b = [ W.tenant ~weight:1e-9 (W.Cycle { pages = 2 }); W.tenant (W.Uniform { pages = 2 }) ] in
  let t = W.generate_phases ~seed:9 [ (phase_a, 50); (phase_b, 50) ] in
  checki "total length" 100 (Trace.length t);
  checki "two users" 2 (Trace.n_users t);
  (* phase A is essentially all user 0, phase B all user 1 *)
  let first_half = Array.sub (Trace.requests t) 0 50 in
  let second_half = Array.sub (Trace.requests t) 50 50 in
  let count u a = Array.fold_left (fun acc q -> if Page.user q = u then acc + 1 else acc) 0 a in
  checkb "phase A dominated by user 0" true (count 0 first_half >= 49);
  checkb "phase B dominated by user 1" true (count 1 second_half >= 49);
  Alcotest.check_raises "tenant count mismatch"
    (Invalid_argument "Workloads.generate_phases: phases disagree on tenant count")
    (fun () ->
      ignore (W.generate_phases ~seed:1 [ (phase_a, 10); ([ W.tenant (W.Uniform { pages = 1 }) ], 10) ]))

let test_workload_day_night () =
  let day = W.symmetric_zipf ~tenants:4 ~pages_per_tenant:10 ~skew:0.5 in
  let phases = W.day_night ~day ~night_tenants:2 ~phase_length:100 ~cycles:3 in
  checki "six phases" 6 (List.length phases);
  let t = W.generate_phases ~seed:4 phases in
  checki "length" 600 (Trace.length t);
  (* night phases carry almost no traffic from tenants 2,3 *)
  let night = Array.sub (Trace.requests t) 100 100 in
  let late_users = Array.fold_left (fun acc q -> if Page.user q >= 2 then acc + 1 else acc) 0 night in
  checkb "night is quiet for tenants 2-3" true (late_users <= 2);
  Alcotest.check_raises "bad night count"
    (Invalid_argument "Workloads.day_night: bad night tenant count") (fun () ->
      ignore (W.day_night ~day ~night_tenants:9 ~phase_length:10 ~cycles:1))

let test_lru_nemesis () =
  let t = W.generate ~seed:1 ~length:10 (W.lru_nemesis ~k:3) in
  let ids = Array.to_list (Array.map Page.id (Trace.requests t)) in
  checkb "cycles k+1 pages" true
    (ids = [ 0; 1; 2; 3; 0; 1; 2; 3; 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Trace IO                                                            *)
(* ------------------------------------------------------------------ *)

let test_io_roundtrip_handmade () =
  let t = sample_trace () in
  let s = Trace_io.to_string t in
  let t' = Trace_io.of_string s in
  checkb "requests preserved" true (Trace.requests t = Trace.requests t');
  checki "users preserved" (Trace.n_users t) (Trace.n_users t')

let test_io_rejects_garbage () =
  checkb "bad magic raises" true
    (match Trace_io.of_string "hello\nusers 2\n" with
    | exception Trace_io.Parse_error _ -> true
    | _ -> false);
  checkb "missing users raises" true
    (match Trace_io.of_string "# convex-caching trace v1\n0 1\n" with
    | exception Trace_io.Parse_error _ -> true
    | _ -> false);
  checkb "bad line raises" true
    (match Trace_io.of_string "# convex-caching trace v1\nusers 2\nx y z\n" with
    | exception Trace_io.Parse_error _ -> true
    | _ -> false)

(* Line numbers count every line, blank and comment lines included. *)
let test_io_error_lines () =
  let line_of s =
    match Trace_io.of_string s with
    | exception Trace_io.Parse_error { line; _ } -> line
    | _ -> -1
  in
  let header = "# convex-caching trace v1\n\n# a comment\n" in
  checki "bad magic" 1 (line_of "hello\nusers 2\n");
  checki "bad user count" 4 (line_of (header ^ "users x\n"));
  checki "bad request after blanks" 7
    (line_of (header ^ "users 2\n0 1\n\nx y z\n"));
  checki "negative page after a comment" 6
    (line_of (header ^ "users 2\n# note\n0 -1\n"));
  checki "duplicate users" 6 (line_of (header ^ "users 2\n\nusers 3\n"));
  checki "page id past the packed width" 5
    (line_of (header ^ "users 1\n0 " ^ string_of_int (1 lsl 40) ^ "\n"));
  checki "missing users is whole-input" 0 (line_of (header ^ "0 1\n"))

let test_io_comments_and_blanks () =
  let s = "# convex-caching trace v1\n\n# a comment\nusers 2\n0 0\n\n1 3\n" in
  let t = Trace_io.of_string s in
  checki "two requests" 2 (Trace.length t);
  checkb "parsed pages" true (Trace.requests t = [| p 0 0; p 1 3 |])

let test_io_file_roundtrip () =
  let t = W.generate ~seed:9 ~length:300 (W.sqlvm_mix ~scale:1) in
  let path = Filename.temp_file "ccache" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.write_file path t;
      let t' = Trace_io.read_file path in
      checkb "file roundtrip" true (Trace.requests t = Trace.requests t'))

let io_roundtrip_property =
  QCheck.Test.make ~name:"io roundtrip on random traces" ~count:50
    QCheck.(pair (int_range 1 4) (int_range 0 80))
    (fun (users, len) ->
      let rng = Prng.create ~seed:(users + (1000 * len)) in
      let reqs =
        List.init len (fun _ ->
            Page.make ~user:(Prng.int rng users) ~id:(Prng.int rng 20))
      in
      let t = Trace.of_list ~n_users:users reqs in
      let t' = Trace_io.of_string (Trace_io.to_string t) in
      Trace.requests t = Trace.requests t' && Trace.n_users t = Trace.n_users t')

(* ------------------------------------------------------------------ *)
(* Trace stats                                                         *)
(* ------------------------------------------------------------------ *)

let test_stats_compute () =
  let t = sample_trace () in
  let s = Trace_stats.compute t in
  checki "length" 6 s.Trace_stats.length;
  checki "cold misses = distinct" 3 s.Trace_stats.cold_misses;
  checki "user0 requests" 4 s.Trace_stats.per_user.(0).Trace_stats.requests;
  checki "user0 distinct" 2 s.Trace_stats.per_user.(0).Trace_stats.distinct_pages;
  checkf "max hit ratio" 0.5 (Trace_stats.max_hit_ratio s)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_trace"
    [
      ( "page",
        [
          Alcotest.test_case "basics" `Quick test_page_basics;
          Alcotest.test_case "string roundtrip" `Quick test_page_string_roundtrip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "index" `Quick test_trace_index;
          Alcotest.test_case "append/flush" `Quick test_trace_append_flush;
          Alcotest.test_case "append mismatch" `Quick test_trace_append_mismatch;
        ]
        @ qsuite [ reference_property; select_property ] );
      ( "zipf",
        [
          Alcotest.test_case "pmf" `Quick test_zipf_pmf;
          Alcotest.test_case "validation" `Quick test_zipf_validation;
          Alcotest.test_case "skew 0 uniform" `Quick test_zipf_skew_zero_uniform;
          Alcotest.test_case "sampling skew" `Quick test_zipf_sampling_skew;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "cycle" `Quick test_workload_cycle;
          Alcotest.test_case "scan" `Quick test_workload_scan;
          Alcotest.test_case "hot/cold" `Quick test_workload_hot_cold;
          Alcotest.test_case "drift" `Quick test_workload_drift;
          Alcotest.test_case "mixture/weights" `Quick test_workload_mixture_and_weights;
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "non-finite rejected" `Quick
            test_workload_float_hygiene;
          Alcotest.test_case "phases" `Quick test_workload_phases;
          Alcotest.test_case "day/night churn" `Quick test_workload_day_night;
          Alcotest.test_case "lru nemesis" `Quick test_lru_nemesis;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip_handmade;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "comments/blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "error lines" `Quick test_io_error_lines;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        ]
        @ qsuite [ io_roundtrip_property ] );
      ( "trace_stats",
        [
          Alcotest.test_case "compute" `Quick test_stats_compute;
        ] );
    ]
