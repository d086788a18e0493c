(** The pbSE campaign layer.

    The paper's single-run driver (Algorithms 1 and 3) lives in the
    session layer: {!Pbse_session.Session.run} and its resumable
    open/step/finish lifecycle. The driver runs it over a seed pool:
    {!run_pool} drives the pool through seed-level scheduling policies
    ({!Pbse_campaign.Pool_scheduler}) built on resumable sessions —
    checkpointed, resumable and shared-seedState-aware — and
    {!pool_run_report} renders the aggregate into the same
    [pbse-report/1] document single runs use. *)

open Pbse_session

(** {1 Configuration}

    {!Session.config} and two of its parts, re-declared so that the
    repository benchmark's qualified labels ([config.Driver.rng_seed],
    [config.Driver.robust.Driver.inject]) keep resolving: OCaml looks a
    qualified label up only in the module that declares it. Everything
    else about configuration is spelled through {!Session}. *)

type solver_config = Session.solver_config = {
  budget : int;
  retry_cap : int;
  prefix_cap : int;
}

type robust_config = Session.robust_config = {
  confirm_bugs : bool;
  max_strikes : int;
  inject : Pbse_robust.Inject.plan;
  watchdog_factor : int;
  watchdog_strikes : int;
  degrade_after : int;
}

type config = Session.config = {
  concolic : Session.concolic_config;
  search : Session.search_config;
  solver : solver_config;
  robust : robust_config;
  pathcond : Session.pathcond_config;
  rng_seed : int;
}

val default_config : config
(** {!Session.default_config}. *)

(** {1 Seed-pool campaigns} *)

val select_seed : bytes list -> coverage_of:(bytes -> int) -> bytes option
(** The paper's seed-selection heuristic (§III-B4): consider the 10
    smallest seeds, pick the one with the best coverage. *)

type pool_report = {
  runs : (bytes * Session.report) list; (* in first-turn order *)
  merged_coverage : int; (* union of covered blocks across runs *)
  merged_bugs : (Pbse_exec.Bug.t * int) list; (* deduplicated, with the
                                                 phase ordinal of the run
                                                 that first found each *)
  pool_scheduler : string; (* policy that drove the campaign *)
  seed_rows : Pbse_telemetry.Report.seed_row list; (* ordinal order,
                                                      every seed (also
                                                      never-run ones) *)
  pool_stats : Pbse_campaign.Pool_scheduler.stats;
  pool_deadline : int;
  pool_spent : int; (* virtual time actually consumed *)
  pool_rounds : int; (* campaign rounds executed *)
  pool_parallel_turns : int; (* turns in rounds that planned >= 2 turns *)
  pool_merge_blocks : int; (* blocks added to the union at merge barriers *)
  pool_merge_bugs : int; (* deduplicated bugs harvested at merge barriers *)
  pool_merge_registries : int; (* session registries folded into the pool's *)
  pool_faults : Pbse_robust.Fault.log;
      (* pool-level faults: turn watchdog kills before a session opened,
         snapshot corruption, resume divergence *)
  pool_registry : Pbse_telemetry.Telemetry.Registry.t;
      (* campaign-wide instruments: pool counters plus every session
         registry, merged in ordinal order *)
  pool_steal_count : int;
      (* turns executed by a non-home pool worker. Wall-clock-side
         diagnostic: depends on [jobs] and scheduling luck, so it is
         deliberately absent from the byte-identical pool-report JSON
         (the bench CSV and CLI surface it) *)
  pool_pinned_turns : int; (* turns executed by their slot's home worker *)
  pool_id_refills : int;
      (* expression id-block refills during the campaign
         ({!Pbse_smt.Expr.id_block_refills}) *)
  pool_shared_seedstates : int;
      (* seedStates skipped because another session of this campaign
         already published their fork point ({!Session.share_stats}
         hits, as a delta over this campaign). Diagnostic like the
         above: 0 unless [search.share_seed_states] is on *)
}

type checkpoint
(** Where and how often a campaign checkpoints itself
    (docs/robustness.md). *)

val checkpoint :
  ?meta:(string * string) list ->
  ?halt_after:int ->
  ?note_ms:(int -> unit) ->
  path:string ->
  every:int ->
  unit ->
  checkpoint
(** Checkpoint to [path] every [every] campaign turns (clamped to at
    least 1), atomically (tmp + rename, previous checkpoint rotated to
    [path].bak). [meta] is carried verbatim in the snapshot — callers
    store what they need to reconstruct the campaign (the CLI stores the
    target name). [halt_after] stops the campaign at the first round
    barrier once that many rounds have run, after writing a final
    checkpoint — a deterministic in-process "kill" for tests and the
    crash-resume bench. [note_ms] receives each write's serialisation
    cost in milliseconds. *)

val run_pool :
  ?config:config ->
  ?scheduler:string ->
  ?runtime:Runtime.t ->
  ?jobs:int ->
  ?lease:int ->
  ?checkpoint:checkpoint ->
  ?resume:Pbse_campaign.Snapshot.t * string option ->
  ?preload_faults:(Pbse_robust.Fault.kind * string) list ->
  ?pool:Pbse_campaign.Domain_pool.t ->
  ?store:Session_store.t ->
  ?target:string ->
  ?round_wrap:((unit -> unit) -> unit) ->
  Pbse_ir.Types.program ->
  seeds:bytes list ->
  deadline:int ->
  pool_report
(** Algorithm 1's outer loop over a seed pool, generalised into a
    scheduled campaign run in deterministic rounds. Seeds are ordered
    smallest-first and become slots of the named seed-level policy
    ({!Pbse_campaign.Pool_scheduler.names}; default
    {!Pbse_campaign.Pool_scheduler.default}, the paper's equal-share
    smallest-first pass). Each round the policy plans one turn per live
    seed; the turns execute on up to [jobs] domains (default 1) via
    {!Pbse_campaign.Campaign.run_rounds} — a persistent, domain-affine
    worker pool: each slot is homed on one domain for the whole
    campaign, with work-stealing only when a worker runs dry — each
    seed's session under its own private {!Runtime} (registry, RNG,
    quarantine, arena), and results merge at the round barrier in plan
    order: coverage into a global block union, bugs deduplicated on
    (location, kind) and attributed to the seed whose turn first
    surfaced them. [lease] (default 1) grants each planned turn up to
    that many consecutive same-budget sub-turns, run unbroken on the
    slot's worker and merged sub-turn by sub-turn at the barrier, so
    barrier and merge overhead amortises (docs/parallelism.md). When
    the campaign ends, per-session registries fold into [runtime]'s
    registry (default: a fresh runtime over the process-global
    registry) in ordinal order. Every field of the result — and the
    byte-exact {!pool_run_report} JSON — is identical for every [jobs]
    value at any fixed [lease] (docs/parallelism.md); the
    [pool_steal_count]/[pool_pinned_turns]/[pool_id_refills]/
    [pool_shared_seedstates] diagnostics are the deliberate exception.
    Raises [Invalid_argument] on an unknown policy name.

    Robustness (docs/robustness.md): [checkpoint] snapshots the campaign
    at round barriers; [resume] reinstates a snapshot — with an optional
    fallback detail recorded as a [Snapshot_corrupt] fault when the
    primary checkpoint was bad — and replays each opened session's
    granted-turn ledger, so kill-and-resume reproduces the uninterrupted
    run's report byte for byte (use {!resume_pool} rather than passing
    [resume] directly). A turn overrunning [watchdog_factor] x budget,
    an injected turn kill ([crash=R]) or a contained turn exception
    strikes its seed toward forced retirement; accumulated faults step
    the effective [jobs] and prefix cap down without aborting the
    campaign. [preload_faults] enters faults on the pool record before
    the first round — the CLI uses it when a campaign restarts fresh
    because every checkpoint was unusable.

    Session layer (docs/architecture.md): [pool] runs the campaign on a
    caller-owned {!Pbse_campaign.Domain_pool} (left running afterwards;
    by default the campaign creates and shuts down its own), and
    [round_wrap] brackets each executed round (dispatch through merges)
    — together they let a server multiplex several campaigns onto one
    shared pool with round-granular fair sharing. With
    [config.search.share_seed_states] on, every session of the campaign
    publishes and consults one seedState table created for this call:
    fork points already published by another session of the same
    campaign are scheduled once. Nothing is shared across calls, so a
    campaign's report never depends on what ran before it.

    [store] and [target] are ignored. They remain in the signature only
    because the repository benchmark ([perfbench/pbench.ml]) passes
    them; they go at its next change. *)

val load_snapshot :
  path:string -> (Pbse_campaign.Snapshot.t * string option, string) result
(** Load a checkpoint for resumption, degrading gracefully: a corrupt or
    version-mismatched [path] falls back to [path].bak (the previous
    checkpoint), returning the primary's failure message alongside so
    the resumed campaign records it. [Error] only when no usable
    checkpoint exists at either location. *)

val resume_pool :
  ?jobs:int ->
  ?lease:int ->
  ?checkpoint:checkpoint ->
  ?fallback:string ->
  Pbse_campaign.Snapshot.t ->
  Pbse_ir.Types.program ->
  seeds:bytes list ->
  (pool_report, string) result
(** Continue a checkpointed campaign: rebuild the config and pool
    scheduler from the snapshot's metadata ([Error] if the metadata is
    malformed or names an unknown policy), then {!run_pool} with the
    snapshot's own deadline, replaying up to the checkpointed barrier
    and running the remainder. [jobs] defaults to the snapshot's
    recorded width and [lease] to its recorded lease — a snapshot
    written under multi-turn leases must resume under the same lease or
    the remaining rounds would plan different work units and diverge
    from the uninterrupted run. [fallback] is the failure message of a
    corrupt primary checkpoint this snapshot replaced
    ({!load_snapshot}). Telemetry enablement is the caller's
    responsibility (the snapshot records it in the ["telemetry"]
    metadata key). *)

val pool_run_report :
  ?meta:(string * string) list -> pool_report -> Pbse_telemetry.Report.t
(** Aggregate campaign report in the same [pbse-report/1] document
    single runs use, so [--report], [report --diff] and [--fail-on]
    work unchanged on pool runs: [pool.*] metrics (seeds, runs, turns,
    rotations, retirements, deadline, spent), merged [coverage.blocks]
    and deduplicated [bugs.*], the element-wise sum of every per-run
    scalar metric family, and a [seeds] section of per-seed rows. The
    pool scheduler's name is recorded in the metadata. Deterministic:
    identical seeded campaigns yield byte-identical JSON. *)
