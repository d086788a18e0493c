(** Versioned, checksummed serialisation of a live campaign.

    A snapshot is the durable record of a seed-pool campaign at a round
    barrier: slot counters and remaining budgets, each opened session's
    granted-turn history (the {e event ledger}), the merged-bug dedup
    keys, scheduler counters, pool telemetry counters and the
    checkpoint/degradation bookkeeping. Engine state (searcher queues,
    symbolic stores, expression arenas) is deliberately {e not}
    serialised — the engine is deterministic in virtual time, so
    [Pbse.Driver.resume_pool] reconstructs it by replaying each
    session's ledger against the same seed, then verifies the replayed
    clock and coverage against the values recorded here.

    The on-disk form is a [pbse-snapshot/1] document in the
    {!Pbse_telemetry.Sealed_file} envelope (payload guarded by an FNV-1a
    checksum); writes are atomic (tmp + rename) and rotate the previous
    checkpoint to [FILE.bak] as a fallback. Field decoding is lenient: a
    missing member decodes to its zero value, so snapshots that carry
    members this version no longer writes still load.
    This module is engine-agnostic (ints and strings only), keeping
    [pbse_campaign] free of any engine dependency. *)

type turn_event =
  | Step of {
      deadline : int; (* the turn's virtual-clock deadline *)
      budget : int; (* the budget the scheduler granted *)
    }  (** a normally executed turn *)
  | Crash of string  (** a turn killed at entry; the normalized detail *)

type slot_state = {
  sl_ordinal : int;
  sl_bytes : int; (* seed length, checked against the resume pool *)
  sl_turns : int;
  sl_granted : int;
  sl_dwell : int;
  sl_new_blocks : int;
  sl_bugs : int;
  sl_quarantined : int;
  sl_strikes : int;
  sl_timeouts : int;
  sl_retired : bool;
  sl_clock : int; (* session virtual time; replay must land here *)
  sl_coverage : int; (* session covered-block count; ditto *)
  sl_prefix_cap : int; (* prefix cap at open time; -1 = unbounded *)
  sl_crash_draws : int; (* turn-crash channel draws to re-burn *)
  sl_events : turn_event list; (* granted turns, oldest first *)
}

type bug_ref = {
  br_slot : int; (* ordinal of the slot the bug was merged from *)
  br_gid : int; (* global block id of the bug site *)
  br_kind : string;
}

type t = {
  sn_meta : (string * string) list; (* config kvs, target, scheduler... *)
  sn_deadline : int; (* the campaign's full budget *)
  sn_spent : int; (* virtual time consumed so far *)
  sn_rounds : int;
  sn_parallel_turns : int;
  sn_merge_blocks : int;
  sn_merge_bugs : int;
  sn_checkpoints : int; (* checkpoints written (snapshot-channel draws) *)
  sn_degrade_faults : int; (* pool-level faults driving degradation *)
  sn_sched_turns : int;
  sn_sched_rotations : int;
  sn_sched_retirements : int;
  sn_pool_faults : (string * int) list; (* pool fault log, label -> count *)
  sn_opened : int list; (* slot ordinals in session-open order *)
  sn_counters : (string * int) list; (* pool registry counters *)
  sn_slots : slot_state list;
  sn_bugs : bug_ref list; (* merged-bug keys in harvest order *)
}

val schema : string
(** ["pbse-snapshot/1"]. *)

val to_string : t -> string
(** The full on-disk document (compact JSON, schema + checksum +
    payload). Deterministic: [of_string] followed by [to_string]
    reproduces the bytes exactly. *)

type error = Pbse_telemetry.Sealed_file.error =
  | Corrupt of string (* unparsable, truncated, or failed its checksum *)
  | Version_mismatch of string (* a schema other than {!schema} *)

val error_message : error -> string

val of_string : string -> (t, error) result

val save : path:string -> t -> unit
(** Atomic write: the document goes to [path].tmp, any existing [path]
    rotates to [path].bak, then the tmp renames into place. *)

val save_string : path:string -> string -> unit
(** {!save} for pre-rendered (possibly deliberately corrupted — fault
    injection) document bytes. *)

val load : path:string -> (t, error) result
(** Read and validate [path]; I/O errors surface as [Corrupt]. *)
