(** The observability clock capability.

    Wall-clock time is quarantined here: this module is the only place
    in [lib/] allowed to read it (enforced by the [no-wall-clock] lint
    rule), and timestamps only ever flow *out* of the simulation into
    observability sinks — never into simulation state.  Code that needs
    a timestamp reads an explicit [t] (spans read {!Control.clock}), so
    tests substitute a deterministic clock and golden files stay
    stable. *)

type t = unit -> float

let now (c : t) = c ()

(* The sanctioned wall-clock read.  Everything else derives from it.
   The forgiveness mask keeps the [time] seed out of every caller's
   effect set: this node IS the quarantine boundary (the static
   analyzer's [direct-clock] rule rejects a [time] seed anywhere
   else). *)
let wall : t = (fun () -> Unix.gettimeofday ()) [@@effects.forgive "time"]

(* Monotonised wall clock: latches the largest value handed out so far,
   so timestamps never step backwards across NTP adjustments.  The
   latch is a CAS loop on a boxed float; contention is negligible at
   span granularity. *)
let last = Atomic.make 0.0

let monotonic : t =
 fun () ->
  let rec go () =
    let now = wall () in
    let prev = Atomic.get last in
    if now <= prev then prev
    else if Atomic.compare_and_set last prev now then now
    else go ()
  in
  go ()

let counting () : t =
  let n = Atomic.make 0 in
  fun () -> float_of_int (Atomic.fetch_and_add n 1)
