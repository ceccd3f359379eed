(** Eviction-policy interface.

    The {!Engine} owns the cache contents and the hit/miss accounting; a
    policy only maintains the metadata needed to pick victims.  The
    contract per request [p] at position [pos]:

    - if [p] is cached, the engine calls [on_hit];
    - otherwise, if the cache is full, the engine calls [choose_victim]
      (which must return a currently cached page), then [on_evict] for
      the victim, then [on_insert] for [p];
    - otherwise just [on_insert].

    Policies are packaged as factories so a single value can be
    instantiated repeatedly across sweep points. *)

open Ccache_trace

module Config = struct
  type t = {
    k : int;  (** cache size in pages *)
    n_users : int;
    costs : Ccache_cost.Cost_function.t array;  (** indexed by user id *)
    index : Trace.Index.t option;
        (** full-trace index; [Some _] only for offline policies *)
    ranks : Ccache_util.Interner.t;
        (** the run's key space: the trace's interner, packed page ->
            dense id in [\[0, Interner.length ranks)] *)
  }

  let make ?index ?(ranks = Ccache_util.Interner.create ~capacity:0) ~k ~costs () =
    if k <= 0 then invalid_arg "Policy.Config.make: k must be positive";
    let n_users = Array.length costs in
    if n_users = 0 then invalid_arg "Policy.Config.make: no users";
    { k; n_users; costs; index; ranks }

  (** Cost function of [user], tolerating the flush dummy user (id =
      n_users) which has zero cost by construction. *)
  let cost t user =
    if user >= 0 && user < Array.length t.costs then t.costs.(user)
    else Ccache_cost.Cost_function.linear ~slope:0.0 ()
end

type handlers = {
  on_hit : pos:int -> Page.t -> unit;
  wants_evict : pos:int -> incoming:Page.t -> bool;
      (** consulted on a miss when the cache is NOT full; returning true
          forces an eviction anyway.  Needed by partitioned policies
          whose per-tenant slice can fill before the shared cache does.
          Most policies use {!never_evict_early}. *)
  choose_victim : pos:int -> incoming:Page.t -> Page.t;
  on_insert : pos:int -> Page.t -> unit;
  on_evict : pos:int -> Page.t -> unit;
}

type t = {
  name : string;
  needs_future : bool;  (** offline policies require [Config.index] *)
  create : Config.t -> handlers;
}

let make ?(needs_future = false) ~name create = { name; needs_future; create }

let name t = t.name
let needs_future t = t.needs_future

let instantiate t config =
  if t.needs_future && config.Config.index = None then
    invalid_arg (t.name ^ ": offline policy requires a trace index");
  t.create config

(* Convenience no-op handlers for policies that ignore some events. *)
let no_hit = fun ~pos:_ _ -> ()
let no_evict = fun ~pos:_ _ -> ()
let never_evict_early = fun ~pos:_ ~incoming:_ -> false
