(** Eviction-policy interface.

    The {!Engine} owns the cache contents and the hit/miss accounting;
    a policy only maintains the metadata needed to pick victims.  The
    contract per request [p] at position [pos]:

    - if [p] is cached, the engine calls [on_hit];
    - otherwise, if the cache is full (or [wants_evict] returns true),
      the engine calls [choose_victim] — which must return a currently
      cached page other than [p] — then [on_evict] for the victim,
      then [on_insert] for [p];
    - otherwise just [on_insert].

    Policies are packaged as factories so one value can be
    instantiated repeatedly across sweep points. *)

open Ccache_trace

module Config : sig
  type t = {
    k : int;  (** cache size in pages *)
    n_users : int;
    costs : Ccache_cost.Cost_function.t array;  (** indexed by user id *)
    index : Trace.Index.t option;
        (** full-trace index; [Some _] only for offline policies *)
    ranks : Ccache_util.Interner.t;
        (** the run's one key space: the trace's interner
            ({!Trace.interner}), mapping a packed page to its dense id
            in [\[0, Interner.length ranks)].  Every page a run hands a
            policy (the flush dummy aside) is in it, so a policy keys
            its state by [Interner.find ranks (Page.pack p)] and sizes
            its rank-indexed arrays once, to [Interner.length ranks].
            Read-only: interning into it would break the trace. *)
  }

  val make :
    ?index:Trace.Index.t ->
    ?ranks:Ccache_util.Interner.t ->
    k:int ->
    costs:Ccache_cost.Cost_function.t array ->
    unit ->
    t
  (** {!Engine.Step.init} always passes [~ranks]; without it the key
      space is empty.
      @raise Invalid_argument if [k <= 0] or [costs] is empty. *)

  val cost : t -> int -> Ccache_cost.Cost_function.t
  (** Cost function of a user; out-of-range users (the engine-internal
      flush dummy) get the zero cost. *)
end

type handlers = {
  on_hit : pos:int -> Page.t -> unit;
  wants_evict : pos:int -> incoming:Page.t -> bool;
      (** consulted on a miss when the cache is NOT full; returning
          true forces an eviction anyway.  Needed by partitioned
          policies whose per-tenant slice fills before the shared
          cache does.  Most policies use {!never_evict_early}. *)
  choose_victim : pos:int -> incoming:Page.t -> Page.t;
  on_insert : pos:int -> Page.t -> unit;
  on_evict : pos:int -> Page.t -> unit;
}

type t

val make : ?needs_future:bool -> name:string -> (Config.t -> handlers) -> t
(** [needs_future] marks offline policies, which require
    [Config.index]. *)

val name : t -> string
val needs_future : t -> bool

val instantiate : t -> Config.t -> handlers
(** @raise Invalid_argument if an offline policy gets no index. *)

(** No-op handler fragments for policies that ignore some events. *)

val no_hit : pos:int -> Page.t -> unit
val no_evict : pos:int -> Page.t -> unit
val never_evict_early : pos:int -> incoming:Page.t -> bool
