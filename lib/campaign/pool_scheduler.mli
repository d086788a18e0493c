(** Seed-pool scheduling policies behind one interface.

    The seed-level mirror of {!Pbse_sched.Scheduler}: each round the
    campaign loop ({!Campaign.run_rounds}) asks [plan] for one turn per
    live seed, runs them, then reports back per seed — [credit] when the
    seed stays schedulable, [retire] when it leaves the pool (engine
    drained, zero budget, or no progress). Policies read the counters on
    {!Seed_slot} (the campaign loop owns them) and are deterministic:
    identical call sequences yield identical plans, which the
    byte-identical aggregate-report test relies on. *)

type turn = {
  slot : Seed_slot.t;
  budget : int; (* virtual-time allowance for this turn *)
}

type stats = {
  mutable turns : int; (* turns granted *)
  mutable rotations : int; (* full rotations: round-robin counts one per
                              planned round, the other policies none *)
  mutable retirements : int; (* slots retired from the rotation *)
}

type t = {
  name : string;
  plan : remaining:int -> turn list;
      (** The whole next {e round} at once: one turn per live slot, in
          policy order, budgets fixed from the state at the barrier.
          Because the plan never depends on the outcomes of turns inside
          the round, the turns can run concurrently (one domain each)
          and merge deterministically — every [--jobs] width sees the
          same plans. An empty list means the pool is drained. *)
  credit : Seed_slot.t -> spent:int -> new_blocks:int -> unit;
      (** The turn ended and the seed stays schedulable (under
          [smallest-first] the seed's single share is spent, so credit
          also retires it). *)
  retire : Seed_slot.t -> unit;  (** Remove the seed from the rotation. *)
  drained : unit -> bool;  (** No slots left to schedule. *)
  active : unit -> Seed_slot.t list;
      (** Slots still schedulable, in policy order. *)
  stats : stats;
}

val smallest_first :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Seed_slot.t list ->
  t
(** The paper's Algorithm 1 (today's equal split): each seed, smallest
    first, gets one turn sized to an equal share of the remaining
    budget. [time_period] is unused. *)

val round_robin :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Seed_slot.t list ->
  t
(** Fair rotation: [time_period]-sized turns in pool order, per-seed
    unused budget rolled forward onto the seed's next turn. *)

val coverage_greedy :
  ?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Seed_slot.t list ->
  t
(** Adaptive reallocation: best new-blocks-per-dwell ratio first
    (integer cross-multiplied, ties to the lower ordinal), budgets
    growing with the slot's own turn count. *)

val default : string
(** ["smallest-first"] — the paper's behaviour. *)

val names : string list
(** All policy names accepted by {!by_name}. *)

val by_name :
  string ->
  (?registry:Pbse_telemetry.Telemetry.Registry.t ->
  time_period:int ->
  Seed_slot.t list ->
  t)
  option
(** Factories accept the registry that owns their [campaign.*] counters
    (default {!Pbse_telemetry.Telemetry.Registry.default}). *)
