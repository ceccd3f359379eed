(** Synthetic multi-tenant workload generators.

    Stand-in for the proprietary SQLVM buffer-pool traces of the
    paper's companion system (DESIGN.md substitution table): each
    tenant draws page ids from a configurable access pattern and a
    weighted interleaver merges tenants into one shared stream.  A
    [(seed, spec)] pair fully determines the trace. *)

type pattern =
  | Uniform of { pages : int }
  | Zipf of { pages : int; skew : float }
  | Cycle of { pages : int }
      (** strict cyclic sweep; with [pages = k + 1] the classical LRU
          worst case *)
  | Sequential_scan of { pages : int; passes : int }
      (** [passes] full sweeps, then uniform re-reads *)
  | Hot_cold of { pages : int; hot_pages : int; hot_prob : float }
  | Drifting_zipf of {
      pages : int;
      window : int;
      skew : float;
      shift_every : int;
    }  (** Zipf over a window whose base drifts — working-set motion *)
  | Mixture of (float * pattern) list

val validate_pattern : pattern -> unit
(** @raise Invalid_argument on malformed parameters, including
    non-finite floats (NaN skew, infinite hot_prob, ...) — the message
    names the offending field.  A NaN would otherwise pass the sign
    checks and silently corrupt every generated trace. *)

type tenant_spec = {
  pattern : pattern;
  weight : float;  (** relative request rate *)
}

val tenant : ?weight:float -> pattern -> tenant_spec
(** @raise Invalid_argument if [weight <= 0] or [weight] is not
    finite. *)

val fingerprint : seed:int -> length:int -> tenant_spec list -> string
(** Canonical rendering of a generation request (floats via [%h]), the
    {!Trace_cache} key for {!generate}. *)

val generate : seed:int -> length:int -> tenant_spec list -> Trace.t
(** Tenant [i]'s pages get user id [i]; each request picks a tenant
    proportionally to weight, then its sampler picks the page.  A pure
    function of its arguments; when {!Trace_cache.set_dir} has enabled
    the on-disk cache, repeated generations load the stored [.ctrace]
    instead of resampling. *)

val generate_single : seed:int -> length:int -> pattern -> Trace.t

val generate_phases : seed:int -> (tenant_spec list * int) list -> Trace.t
(** Tenant churn: one trace segment per [(specs, duration)] phase,
    concatenated.  All phases must agree on the tenant count; samplers
    restart at phase boundaries (working-set reset on reactivation). *)

val day_night :
  day:tenant_spec list ->
  night_tenants:int ->
  phase_length:int ->
  cycles:int ->
  (tenant_spec list * int) list
(** Diurnal churn phases for {!generate_phases}: alternate the full
    [day] mix with a night mix where only the first [night_tenants]
    stay active (others idle at epsilon weight). *)

(** {1 Canned scenarios} *)

val symmetric_zipf :
  tenants:int -> pages_per_tenant:int -> skew:float -> tenant_spec list

val sqlvm_mix : scale:int -> tenant_spec list
(** Five-tenant DaaS mix (skewed OLTP, scans, hot-set, drifting),
    mirroring the companion paper's workload archetypes. *)

val lru_nemesis : k:int -> tenant_spec list
(** One tenant cycling over [k + 1] pages. *)
