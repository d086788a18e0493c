(** The explicit runtime context threaded through every engine layer.

    One [t] bundles everything that used to live in ambient module
    state: the telemetry registry that owns every instrument the
    session touches, the session's RNG, its fault-injection plan, its
    quarantine, the hash-consing arena its expressions intern into, and
    the solver's prefix-context LRU bound. A session holds exactly one
    runtime; two sessions with distinct runtimes share {e no} mutable
    state, which is what lets campaign turns run on concurrent domains
    (docs/parallelism.md).

    [Session.open_session] builds a default runtime from its config when
    the caller doesn't supply one, so single-run callers keep the
    process-global defaults ({!Pbse_telemetry.Telemetry.Registry.default},
    the default expression arena). *)

type t = {
  registry : Pbse_telemetry.Telemetry.Registry.t;
  rng : Pbse_util.Rng.t;  (** all stochastic choices derive from this *)
  inject : Pbse_robust.Inject.plan;
  quarantine : Pbse_robust.Quarantine.t;
  arena : Pbse_smt.Expr.arena;
  prefix_cap : int option;
      (** solver prefix-context LRU bound; [None] = solver default *)
}

val create :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  ?rng_seed:int ->
  ?inject:Pbse_robust.Inject.plan ->
  ?quarantine:Pbse_robust.Quarantine.t ->
  ?max_strikes:int ->
  ?prefix_cap:int ->
  unit ->
  t
(** Defaults: the process-global registry, RNG seed 1, no fault
    injection, a fresh quarantine with [max_strikes] (default 4) whose
    counters live in [registry], a fresh expression arena, and the
    solver's default prefix-cap. *)

val activate : t -> unit
(** Install the runtime's expression arena on the calling domain
    ({!Pbse_smt.Expr.use_arena}). Must run on the domain about to
    execute the session — [Session.open_session] and
    [Session.step_session] call it, so a session migrating between
    domains across campaign rounds always interns into its own arena. *)

val derive :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  ?rng_seed:int ->
  ?prefix_cap:int ->
  t ->
  t
(** A child runtime for one session of a campaign: fresh registry
    (default: share the parent's), RNG split from the parent (or seeded
    with [rng_seed]), fresh private quarantine with the parent's strike
    limit, fresh arena; the inject plan is inherited, and the prefix-cap
    is inherited unless [prefix_cap] overrides it (the pool driver
    shrinks it under graceful degradation). *)
