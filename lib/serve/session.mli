(** The sharded cache service, live form: a concurrent front door.

    Where {!Service} replays a recorded trace under the logical clock,
    a session accepts requests {e as they arrive} from any number of
    client domains.  Each shard owns a bounded FIFO queue of
    [(page, ticket)] pairs and an engine state built over an empty
    trace and driven by {!Ccache_sim.Engine.Step.feed}; clients
    {!submit} (blocking while the shard's queue is full — the [Block]
    backpressure of the scheduler, realised with a condition variable)
    or {!try_submit} (returning
    [Error `Overloaded] instead — the [Reject] mode), then {!wait} on
    the ticket for the hit/miss outcome.

    Two drain modes:
    - {b manual} (default): nothing runs until someone calls {!drain}
      / {!drain_all}.  Queue contents between calls are exact, which
      is what the backpressure unit tests rely on.
    - {b workers} ([~workers:true]): one dedicated domain per shard
      drains batches as they arrive.  Engine state is only ever
      touched under the shard's mutex, and all within-shard
      processing is FIFO, so per-shard request order — and therefore
      each shard's engine result — is exactly the submission order
      even in this mode.

    Lock order (deadlock freedom): a shard mutex may be held while
    taking a ticket mutex, never the reverse; the session lifecycle
    mutex is never held while taking either. *)

open Ccache_trace

exception Closed
(** Raised by [submit]/[try_submit]/[drain] after {!close} or
    {!shutdown_now}, and by a second lifecycle call. *)

exception Cancelled
(** Raised by {!wait}/{!poll} on a ticket whose request was discarded
    by {!shutdown_now} — pending work fails loudly, it never hangs. *)

type t
type ticket

type outcome = Hit | Miss

val create :
  ?policy:Ccache_sim.Policy.t ->
  ?workers:bool ->
  router:Router.t ->
  shard_k:int ->
  batch:int ->
  queue_cap:int ->
  costs:Ccache_cost.Cost_function.t array ->
  unit ->
  t
(** A live session with one shard per [Router.shards router], each
    with a [shard_k]-page cache; [Array.length costs] fixes the user
    universe.  Defaults: [Alg_fast.policy], manual drain.
    @raise Invalid_argument on non-positive parameters or an offline
    policy. *)

val submit : t -> Page.t -> ticket
(** Enqueue on the page's shard, blocking while that queue is full.
    @raise Closed if the session is closed (including while blocked). *)

val try_submit : t -> Page.t -> (ticket, [ `Overloaded ]) result
(** Non-blocking [submit]: [Error `Overloaded] on a full queue.
    @raise Closed as [submit]. *)

val wait : ticket -> outcome
(** Block until the request was processed.  @raise Cancelled if it was
    discarded by {!shutdown_now}. *)

val poll : ticket -> outcome option
(** Non-blocking [wait]. @raise Cancelled as [wait]. *)

val drain : t -> shard:int -> int
(** Manual mode only: process up to [batch] queued requests on one
    shard, FIFO; returns the number processed.
    @raise Invalid_argument in workers mode or on a bad shard index.
    @raise Closed after close. *)

val drain_all : t -> int
(** Repeated {!drain} sweeps over all shards until every queue is
    empty; returns the total processed. *)

val pending : t -> int
(** Queued (not yet processed) requests across all shards. *)

val waiters : t -> int
(** Clients currently blocked in {!submit} — the test hook that lets
    backpressure tests observe blocking deterministically. *)

val served : t -> int
(** Requests processed across all shards. *)

val close : t -> Ccache_sim.Engine.result array
(** Graceful shutdown: stop admitting ([submit] raises [Closed]),
    drain every queue (workers finish and are joined; manual mode
    drains inline), and return the per-shard engine results, indexed
    by shard.  Call once.  @raise Closed on a second lifecycle call. *)

val shutdown_now : t -> unit
(** Abortive shutdown: discard every queued request, failing its
    ticket with {!Cancelled}; requests already processed keep their
    outcomes.  Idempotent after any lifecycle call. *)
