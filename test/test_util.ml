(* Unit and property tests for ccache_util. *)

module Prng = Ccache_util.Prng
module Stats = Ccache_util.Stats
module Fc = Ccache_util.Float_cmp
module Rank_list = Ccache_util.Rank_list
module Heap = Ccache_util.Indexed_heap
module Rank_set = Ccache_util.Rank_set
module Interner = Ccache_util.Interner
module Tbl = Ccache_util.Ascii_table

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:1 in
  for _ = 1 to 100 do
    checkb "same stream" true (Prng.float a = Prng.float b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let xs = Array.init 16 (fun _ -> Prng.float a) in
  let ys = Array.init 16 (fun _ -> Prng.float b) in
  checkb "different seeds differ" true (xs <> ys)

let test_prng_split_independent () =
  let parent = Prng.create ~seed:7 in
  let child = Prng.split parent in
  let c1 = Array.init 8 (fun _ -> Prng.float child) in
  (* splitting again gives a different child stream *)
  let child2 = Prng.split parent in
  let c2 = Array.init 8 (fun _ -> Prng.float child2) in
  checkb "children differ" true (c1 <> c2)

let test_prng_int_range () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Prng.int t 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_float_range () =
  let t = Prng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let v = Prng.float t in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_uniformity () =
  let t = Prng.create ~seed:5 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Prng.int t 10 in
    counts.(b) <- counts.(b) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      checkb "roughly uniform" true (freq > 0.08 && freq < 0.12))
    counts

let test_prng_bernoulli () =
  let t = Prng.create ~seed:6 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prng.bernoulli t ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  checkb "p=0.3" true (Float.abs (freq -. 0.3) < 0.02)

let test_prng_categorical () =
  let t = Prng.create ~seed:8 in
  let weights = [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Prng.categorical t ~weights in
    counts.(i) <- counts.(i) + 1
  done;
  checki "zero-weight bucket empty" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  checkb "3:1 ratio" true (ratio > 2.7 && ratio < 3.3)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_linear_fit () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let slope, intercept = Stats.linear_fit ~xs ~ys in
  checkf "slope" 2.0 slope;
  checkf "intercept" 1.0 intercept

let test_stats_loglog_slope () =
  let xs = [| 1.0; 2.0; 4.0; 8.0 |] in
  let ys = Array.map (fun x -> 3.0 *. (x ** 1.7)) xs in
  Alcotest.(check (float 1e-6)) "power-law exponent" 1.7
    (Stats.loglog_slope ~xs ~ys)

(* ------------------------------------------------------------------ *)
(* Float_cmp                                                           *)
(* ------------------------------------------------------------------ *)

let test_float_cmp () =
  checkb "zero" true (Fc.approx_zero 1e-12);
  checkb "negative zero" true (Fc.approx_zero (-1e-12));
  checkb "not zero" false (Fc.approx_zero 1e-6);
  checkb "wider tolerance" true (Fc.approx_zero ~tol:1e-3 1e-6)

(* ------------------------------------------------------------------ *)
(* Rank_list                                                           *)
(* ------------------------------------------------------------------ *)

let test_rank_list_basic () =
  let l = Rank_list.create ~ranks:4 ~lists:2 in
  checki "empty" 0 (Rank_list.length l 0);
  Rank_list.push_front l 0 1;
  Rank_list.push_front l 0 2;
  Rank_list.push_back l 0 3;
  (* order: 2 1 3 *)
  checkb "to_list" true (Rank_list.to_list l 0 = [ 2; 1; 3 ]);
  checki "length" 3 (Rank_list.length l 0);
  checki "owner" 0 (Rank_list.owner l 3);
  (* move to front *)
  Rank_list.remove l 3;
  Rank_list.push_front l 0 3;
  checkb "moved" true (Rank_list.to_list l 0 = [ 3; 2; 1 ]);
  (* move to the other list *)
  Rank_list.remove l 2;
  Rank_list.push_back l 1 2;
  checkb "left" true (Rank_list.to_list l 0 = [ 3; 1 ]);
  checkb "joined" true (Rank_list.to_list l 1 = [ 2 ]);
  checki "new owner" 1 (Rank_list.owner l 2);
  checkb "invariant" true (Rank_list.invariant_ok l);
  (* a removed rank can be reinserted *)
  Rank_list.remove l 1;
  checki "no owner" (-1) (Rank_list.owner l 1);
  Rank_list.push_front l 0 1;
  checkb "reinserted" true (Rank_list.to_list l 0 = [ 1; 3 ])

let test_rank_list_ends () =
  let l = Rank_list.create ~ranks:5_001 ~lists:1 in
  checki "front of empty" (-1) (Rank_list.front l 0);
  checki "back of empty" (-1) (Rank_list.back l 0);
  checki "unseen rank" (-1) (Rank_list.owner l 1_000);
  checki "rank -1" (-1) (Rank_list.owner l (-1));
  (* far past the initial arrays: they grow to cover it *)
  Rank_list.push_back l 0 5_000;
  checki "front" 5_000 (Rank_list.front l 0);
  checki "back" 5_000 (Rank_list.back l 0);
  Rank_list.push_back l 0 7;
  checki "front stays" 5_000 (Rank_list.front l 0);
  checki "new back" 7 (Rank_list.back l 0);
  Rank_list.remove l 5_000;
  Rank_list.remove l 7;
  checki "emptied" (-1) (Rank_list.front l 0);
  checkb "invariant" true (Rank_list.invariant_ok l)

let test_rank_list_guards () =
  let l = Rank_list.create ~ranks:3 ~lists:2 in
  Rank_list.push_front l 0 1;
  Alcotest.check_raises "double insert"
    (Invalid_argument "Rank_list.push_front: rank already in a list") (fun () ->
      Rank_list.push_front l 1 1);
  Alcotest.check_raises "double insert at the back"
    (Invalid_argument "Rank_list.push_back: rank already in a list") (fun () ->
      Rank_list.push_back l 0 1);
  Alcotest.check_raises "remove a free rank"
    (Invalid_argument "Rank_list.remove: rank in no list") (fun () ->
      Rank_list.remove l 2);
  Alcotest.check_raises "negative rank"
    (Invalid_argument "Rank_list: rank out of range") (fun () ->
      Rank_list.push_back l 0 (-1));
  Alcotest.check_raises "rank beyond the bound"
    (Invalid_argument "Rank_list: rank out of range") (fun () ->
      Rank_list.push_front l 0 3);
  Alcotest.check_raises "no lists"
    (Invalid_argument "Rank_list.create: lists must be >= 1") (fun () ->
      ignore (Rank_list.create ~ranks:3 ~lists:0));
  checkb "untouched" true (Rank_list.to_list l 0 = [ 1 ] && Rank_list.invariant_ok l)

(* Model-based qcheck: a random op sequence over two lists against a
   pair of list models.  The ranks run past both ends of the bound
   [\[0, 24)]: pushing one of those must raise and change nothing. *)
let rank_list_model_test =
  QCheck.Test.make ~name:"rank_list matches list model" ~count:200
    QCheck.(list (triple (int_range 0 3) (int_range 0 1) (int_range (-2) 26)))
    (fun ops ->
      let bound = 24 in
      let l = Rank_list.create ~ranks:bound ~lists:2 in
      let model = [| []; [] |] in
      let owner r = if List.mem r model.(0) then 0 else if List.mem r model.(1) then 1 else -1 in
      let drop r =
        let o = owner r in
        Rank_list.remove l r;
        model.(o) <- List.filter (fun x -> x <> r) model.(o)
      in
      List.iter
        (fun (op, li, r) ->
          match op with
          | (0 | 1) when r < 0 || r >= bound -> (
              let push = if op = 0 then Rank_list.push_front else Rank_list.push_back in
              match push l li r with
              | () -> failwith "out-of-range push accepted"
              | exception Invalid_argument _ -> ())
          | 0 when owner r < 0 ->
              Rank_list.push_front l li r;
              model.(li) <- r :: model.(li)
          | 1 when owner r < 0 ->
              Rank_list.push_back l li r;
              model.(li) <- model.(li) @ [ r ]
          | 2 when owner r >= 0 -> drop r
          | 3 when owner r >= 0 ->
              (* move to the front of list [li] *)
              drop r;
              Rank_list.push_front l li r;
              model.(li) <- r :: model.(li)
          | _ -> ())
        ops;
      Rank_list.to_list l 0 = model.(0)
      && Rank_list.to_list l 1 = model.(1)
      && Rank_list.length l 0 = List.length model.(0)
      && List.for_all (fun (_, _, r) -> Rank_list.owner l r = owner r) ops
      && Rank_list.invariant_ok l)

(* ------------------------------------------------------------------ *)
(* Indexed_heap                                                        *)
(* ------------------------------------------------------------------ *)

(* The minimum entry, read through the allocation-free accessors. *)
let peek h =
  if Heap.is_empty h then None else Some (Heap.min_key_exn h, Heap.min_prio_exn h)

let test_heap_basic () =
  let h = Heap.create ~n:4 () in
  checkb "empty" true (Heap.is_empty h);
  Heap.add h ~key:1 ~prio:5.0;
  Heap.add h ~key:2 ~prio:3.0;
  Heap.add h ~key:3 ~prio:4.0;
  checkb "peek min" true (peek h = Some (2, 3.0));
  Heap.update h ~key:2 ~prio:10.0;
  checkb "after increase" true (peek h = Some (3, 4.0));
  Heap.update h ~key:1 ~prio:0.5;
  checkb "after decrease" true (peek h = Some (1, 0.5));
  Heap.remove h 1;
  checkb "after remove" true (peek h = Some (3, 4.0));
  checki "length" 2 (Heap.length h);
  checkb "invariant" true (Heap.invariant_ok h)

let test_heap_tie_break () =
  let h = Heap.create ~n:10 () in
  Heap.add h ~key:9 ~prio:1.0;
  Heap.add h ~key:3 ~prio:1.0;
  Heap.add h ~key:7 ~prio:1.0;
  checki "smallest key wins ties" 3 (Heap.min_key_exn h)

let test_heap_errors () =
  let h = Heap.create ~n:100 () in
  Heap.add h ~key:1 ~prio:1.0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Indexed_heap.add: duplicate key") (fun () ->
      Heap.add h ~key:1 ~prio:2.0);
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Heap.priority h 99))

(* A key outside [0, n) is an error at every entry point that takes
   one, present keys or not; so is a tie array shorter than n. *)
let test_heap_key_range () =
  let n = 8 in
  let h = Heap.create ~n () in
  Heap.add h ~key:0 ~prio:1.0;
  let outside = Invalid_argument "Indexed_heap: key outside [0, n)" in
  List.iter
    (fun key ->
      let raises what f = Alcotest.check_raises (Printf.sprintf "%s %d" what key) outside f in
      raises "add" (fun () -> Heap.add h ~key ~prio:1.0);
      raises "set" (fun () -> Heap.set h ~key ~prio:1.0);
      raises "remove" (fun () -> Heap.remove h key);
      raises "update" (fun () -> Heap.update h ~key ~prio:1.0);
      raises "priority" (fun () -> ignore (Heap.priority h key));
      raises "mem" (fun () -> ignore (Heap.mem h key)))
    [ -1; n; max_int ];
  checkb "heap untouched" true (Heap.length h = 1 && Heap.invariant_ok h);
  Alcotest.check_raises "ties length"
    (Invalid_argument "Indexed_heap.create: ties must cover [0, n)") (fun () ->
      ignore (Heap.create ~ties:(Array.make (n - 1) 0) ~n ()))

let test_heap_set_upsert () =
  let h = Heap.create ~n:2 () in
  Heap.set h ~key:1 ~prio:5.0;
  checkb "insert path" true (peek h = Some (1, 5.0));
  Heap.set h ~key:1 ~prio:2.0;
  checkb "update path" true (peek h = Some (1, 2.0));
  checki "no duplicate" 1 (Heap.length h)

let test_heap_pop_order () =
  let h = Heap.create ~n:5 () in
  let vals = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  List.iteri (fun i p -> Heap.add h ~key:i ~prio:p) vals;
  let popped = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, p) ->
        popped := p :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  checkb "ascending" true (List.rev !popped = [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let heap_model_test =
  QCheck.Test.make ~name:"heap matches sorted-assoc model" ~count:200
    QCheck.(list (pair (int_range 0 2) (pair (int_range 0 20) (float_range 0.0 100.0))))
    (fun ops ->
      let h = Heap.create ~n:21 () in
      let model : (int, float) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (op, (k, p)) ->
          match op with
          | 0 ->
              if not (Heap.mem h k) then begin
                Heap.add h ~key:k ~prio:p;
                Hashtbl.replace model k p
              end
          | 1 ->
              if Heap.mem h k then begin
                Heap.update h ~key:k ~prio:p;
                Hashtbl.replace model k p
              end
          | _ ->
              if Heap.mem h k then begin
                Heap.remove h k;
                Hashtbl.remove model k
              end)
        ops;
      if not (Heap.invariant_ok h) then false
      else if Hashtbl.length model = 0 then Heap.is_empty h
      else begin
        let min_model =
          Hashtbl.fold
            (fun k p acc ->
              match acc with
              | None -> Some (k, p)
              | Some (bk, bp) ->
                  if p < bp || (p = bp && k < bk) then Some (k, p) else acc)
            model None
        in
        peek h = min_model
      end)

(* Drain equivalence against a naive sorted-list model: the heap's pop
   sequence must equal the model sorted by (priority, tie value) — this
   pins the deterministic tie-break, not just the minimum.  Each op
   list runs twice: with the key as its own tie value, and with a
   random permutation of the keys passed as [~ties].  Ops go through
   [set] (the upsert the hot path uses), so unchanged-priority re-sets
   and both sift directions are exercised; priorities are drawn from a
   handful of values to force duplicates, and 24 keys take the slot
   arrays past their initial 16 entries to the cap at n. *)
let drain_matches_model ?ties ops =
  let n = 24 in
  let h = Heap.create ?ties ~n () in
  let tie k = match ties with None -> k | Some a -> a.(k) in
  let model : (int, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (op, (k, p)) ->
      let p = float_of_int p in
      match op with
      | 0 | 1 | 2 ->
          Heap.set h ~key:k ~prio:p;
          Hashtbl.replace model k p
      | 3 ->
          if Heap.mem h k then begin
            Heap.remove h k;
            Hashtbl.remove model k
          end
      | _ ->
          if Heap.mem h k then begin
            (* priority must reflect the last write *)
            if Heap.priority h k <> Hashtbl.find model k then
              QCheck.Test.fail_report "priority disagrees with model"
          end)
    ops;
  if not (Heap.invariant_ok h) then false
  else begin
    let expected =
      Hashtbl.fold (fun k p acc -> (k, p) :: acc) model []
      |> List.sort (fun (k1, p1) (k2, p2) ->
             match Float.compare p1 p2 with
             | 0 -> Int.compare (tie k1) (tie k2)
             | c -> c)
    in
    (match expected with
    | first :: _ when peek h <> Some first ->
        QCheck.Test.fail_report "min_key/min_prio disagree with the model"
    | _ -> ());
    let drained = ref [] in
    let rec go () =
      match Heap.pop h with
      | Some kp ->
          drained := kp :: !drained;
          go ()
      | None -> ()
    in
    go ();
    List.rev !drained = expected
  end

let heap_drain_model_test =
  QCheck.Test.make ~name:"heap drain equals sorted-list model" ~count:200
    QCheck.(
      pair int (list (pair (int_range 0 4) (pair (int_range 0 23) (int_range 0 5)))))
    (fun (seed, ops) ->
      let ties = Array.init 24 Fun.id in
      let rng = Prng.create ~seed in
      for i = 23 downto 1 do
        let j = Prng.int rng (i + 1) in
        let t = ties.(i) in
        ties.(i) <- ties.(j);
        ties.(j) <- t
      done;
      drain_matches_model ops && drain_matches_model ~ties ops)

(* ------------------------------------------------------------------ *)
(* Rank_set                                                            *)
(* ------------------------------------------------------------------ *)

let test_rank_set_guards () =
  let s = Rank_set.create ~ranks:4 in
  Rank_set.add s 2;
  List.iter
    (fun (msg, exn, f) -> Alcotest.check_raises msg (Invalid_argument exn) f)
    [
      ("add -1", "Rank_set.add: rank out of range", fun () -> Rank_set.add s (-1));
      ("add 4", "Rank_set.add: rank out of range", fun () -> Rank_set.add s 4);
      ("add twice", "Rank_set.add: rank already a member", fun () -> Rank_set.add s 2);
      ("remove absent", "Rank_set.remove: rank not a member", fun () -> Rank_set.remove s 1);
      ("remove outside", "Rank_set.remove: rank not a member", fun () -> Rank_set.remove s 9);
      ("nth past the end", "Rank_set.nth: position out of range",
        fun () -> ignore (Rank_set.nth s 1));
    ];
  checkb "mem outside" false (Rank_set.mem s (-1) || Rank_set.mem s 4);
  checki "length" 1 (Rank_set.length s)

(* Model: the member order is a list that [add] appends to and [remove]
   edits by moving the last member into the hole.  Random's victims are
   drawn by position from exactly this order. *)
let rank_set_model_test =
  QCheck.Test.make ~name:"rank_set order matches swap-removal model" ~count:300
    QCheck.(list (int_range 0 19))
    (fun ops ->
      let s = Rank_set.create ~ranks:20 in
      let model = ref [||] in
      List.for_all
        (fun r ->
          (if Rank_set.mem s r then begin
             Rank_set.remove s r;
             let m = !model in
             let last = Array.length m - 1 in
             let i = ref 0 in
             while m.(!i) <> r do incr i done;
             m.(!i) <- m.(last);
             model := Array.sub m 0 last
           end
           else begin
             Rank_set.add s r;
             model := Array.append !model [| r |]
           end);
          Rank_set.length s = Array.length !model
          && Array.for_all Fun.id (Array.mapi (fun i r -> Rank_set.nth s i = r) !model)
          && List.for_all
               (fun r -> Rank_set.mem s r = Array.mem r !model)
               (List.init 20 Fun.id))
        ops)

(* ------------------------------------------------------------------ *)
(* Interner                                                            *)
(* ------------------------------------------------------------------ *)

let test_interner_basic () =
  let t = Interner.create ~capacity:1 in
  checki "first key" 0 (Interner.intern t 40);
  checki "second key" 1 (Interner.intern t (-3));
  checki "repeat keeps its rank" 0 (Interner.intern t 40);
  checki "find" 1 (Interner.find t (-3));
  checki "find unseen" (-1) (Interner.find t 7);
  checki "length" 2 (Interner.length t);
  checki "key of rank" (-3) (Interner.key t 1);
  Alcotest.check_raises "unknown rank"
    (Invalid_argument "Interner.key: unknown rank") (fun () ->
      ignore (Interner.key t 2))

let test_interner_min_int_rejected () =
  let t = Interner.create ~capacity:16 in
  let reserved = Invalid_argument "Interner: key min_int is reserved" in
  Alcotest.check_raises "intern" reserved (fun () ->
      ignore (Interner.intern t min_int));
  Alcotest.check_raises "find" reserved (fun () ->
      ignore (Interner.find t min_int))

(* The reservation is checked before the table is touched: in a table
   grown from capacity 1, with [min_int]'s neighbours [min_int + 1]
   and [max_int] interned as ordinary keys, a refused [min_int] takes
   no rank and moves no key. *)
let test_interner_min_int_after_growth () =
  let t = Interner.create ~capacity:1 in
  let keys = (min_int + 1) :: max_int :: List.init 40 (fun i -> (i * 7) - 100) in
  List.iteri (fun r k -> checki "fresh rank" r (Interner.intern t k)) keys;
  let n = Interner.length t in
  Alcotest.check_raises "intern after growth"
    (Invalid_argument "Interner: key min_int is reserved") (fun () ->
      ignore (Interner.intern t min_int));
  checki "no rank taken" n (Interner.length t);
  List.iteri (fun r k -> checki "rank kept" r (Interner.find t k)) keys;
  checki "next key takes the next rank" n (Interner.intern t 12_345)

(* A capacity whose table no array can hold is refused: rounding it
   up to a power of two would double past [max_int]. *)
let test_interner_capacity_too_large () =
  List.iter
    (fun capacity ->
      Alcotest.check_raises
        (Printf.sprintf "capacity %d" capacity)
        (Invalid_argument "Interner.create: capacity exceeds the largest array")
        (fun () -> ignore (Interner.create ~capacity)))
    [ max_int; max_int - 1; Sys.max_array_length; (Sys.max_array_length + 1) / 4 ]

(* The slot hash must read every key bit.  Packed pages keep the user
   at bit 38 and up, so four tenants' copies of the page ids 0..4095
   differ only there; a hash that ignores those bits files each group
   of four under one home slot and probes ~2 extra slots per key. *)
let test_interner_reads_user_bits () =
  let t = Interner.create ~capacity:16 in
  let key u i = (u lsl 38) lor i in
  for u = 0 to 3 do
    for i = 0 to 4095 do
      ignore (Interner.intern t (key u i))
    done
  done;
  checki "all keys interned" 16_384 (Interner.length t);
  for u = 0 to 3 do
    for i = 0 to 4095 do
      if Interner.find t (key u i) <> (u * 4096) + i then
        Alcotest.failf "key (%d, %d) lost its rank" u i
    done
  done;
  let d = Interner.mean_displacement t in
  if d >= 0.5 then Alcotest.failf "mean probe displacement %.3f >= 0.5" d

(* Model: the distinct keys in order of first occurrence; a key's rank
   is its index there.  Starting from capacity 1, any sequence with two
   or more distinct keys grows both the table and the rank array. *)
let interner_model_test =
  QCheck.Test.make ~name:"interner ranks follow first occurrence" ~count:300
    QCheck.(list (int_range (-60) 60))
    (fun keys ->
      let t = Interner.create ~capacity:1 in
      let model = ref [||] in
      let model_rank k =
        let r = ref (-1) in
        Array.iteri (fun i k' -> if k' = k then r := i) !model;
        !r
      in
      List.for_all
        (fun k ->
          let before = model_rank k in
          if before < 0 then model := Array.append !model [| k |];
          let expected = model_rank k in
          Interner.find t k = before
          && Interner.intern t k = expected
          && Interner.key t expected = k)
        keys
      && Interner.length t = Array.length !model
      && Array.for_all
           (fun k ->
             let r = model_rank k in
             Interner.find t k = r && Interner.key t r = k)
           !model)

(* ------------------------------------------------------------------ *)
(* Ascii_table                                                         *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_table_render_plain () =
  let t = Tbl.create ~title:"demo" ~aligns:[ Tbl.Left; Tbl.Right ] [ "a"; "b" ] in
  Tbl.add_row t [ "xx"; "1" ];
  Tbl.add_row t [ "y"; "22" ];
  let s = Tbl.to_string t in
  checkb "has title" true (String.length s > 4 && String.sub s 0 4 = "demo");
  checkb "contains cell" true (contains ~needle:"xx" s);
  checkb "right-aligned number" true (contains ~needle:" 1 |" s);
  let md = Tbl.to_markdown t in
  checkb "markdown has pipes" true (String.contains md '|');
  checkb "markdown align row" true (contains ~needle:":-" md)

let test_table_errors () =
  let t = Tbl.create [ "a"; "b" ] in
  Alcotest.check_raises "row width"
    (Invalid_argument "Ascii_table.add_row: row width mismatch") (fun () ->
      Tbl.add_row t [ "only-one" ])

let test_table_cells () =
  checkb "int" true (Tbl.cell_int 42 = "42");
  checkb "pct" true (Tbl.cell_pct 0.5 = "50.0%");
  checkb "ratio" true (Tbl.cell_ratio 1.23456 = "1.235")

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "ccache_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "bernoulli" `Quick test_prng_bernoulli;
          Alcotest.test_case "categorical" `Quick test_prng_categorical;
        ] );
      ( "stats",
        [
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "loglog slope" `Quick test_stats_loglog_slope;
        ] );
      ("float_cmp", [ Alcotest.test_case "all" `Quick test_float_cmp ]);
      ( "rank_list",
        [
          Alcotest.test_case "basic" `Quick test_rank_list_basic;
          Alcotest.test_case "front/back" `Quick test_rank_list_ends;
          Alcotest.test_case "guards" `Quick test_rank_list_guards;
        ]
        @ qsuite [ rank_list_model_test ] );
      ( "indexed_heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "tie break" `Quick test_heap_tie_break;
          Alcotest.test_case "errors" `Quick test_heap_errors;
          Alcotest.test_case "key range" `Quick test_heap_key_range;
          Alcotest.test_case "set upsert" `Quick test_heap_set_upsert;
          Alcotest.test_case "pop order" `Quick test_heap_pop_order;
        ]
        @ qsuite [ heap_model_test; heap_drain_model_test ] );
      ("rank_set",
        Alcotest.test_case "guards" `Quick test_rank_set_guards
        :: qsuite [ rank_set_model_test ] );
      ( "interner",
        [
          Alcotest.test_case "basic" `Quick test_interner_basic;
          Alcotest.test_case "min_int reserved" `Quick
            test_interner_min_int_rejected;
          Alcotest.test_case "min_int reserved after growth" `Quick
            test_interner_min_int_after_growth;
          Alcotest.test_case "capacity too large" `Quick
            test_interner_capacity_too_large;
          Alcotest.test_case "hash reads the user bits" `Quick
            test_interner_reads_user_bits;
        ]
        @ qsuite [ interner_model_test ] );
      ( "ascii_table",
        [
          Alcotest.test_case "render" `Quick test_table_render_plain;
          Alcotest.test_case "errors" `Quick test_table_errors;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
