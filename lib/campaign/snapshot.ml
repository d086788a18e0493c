module Json = Pbse_telemetry.Json
module Sealed_file = Pbse_telemetry.Sealed_file

type turn_event =
  | Step of {
      deadline : int;
      budget : int;
    }
  | Crash of string

type slot_state = {
  sl_ordinal : int;
  sl_bytes : int;
  sl_turns : int;
  sl_granted : int;
  sl_dwell : int;
  sl_new_blocks : int;
  sl_bugs : int;
  sl_quarantined : int;
  sl_strikes : int;
  sl_timeouts : int;
  sl_retired : bool;
  sl_clock : int;
  sl_coverage : int;
  sl_prefix_cap : int;
  sl_crash_draws : int;
  sl_events : turn_event list;
}

type bug_ref = {
  br_slot : int;
  br_gid : int;
  br_kind : string;
}

type t = {
  sn_meta : (string * string) list;
  sn_deadline : int;
  sn_spent : int;
  sn_rounds : int;
  sn_parallel_turns : int;
  sn_merge_blocks : int;
  sn_merge_bugs : int;
  sn_checkpoints : int;
  sn_degrade_faults : int;
  sn_sched_turns : int;
  sn_sched_rotations : int;
  sn_sched_retirements : int;
  sn_pool_faults : (string * int) list;
  sn_opened : int list;
  sn_counters : (string * int) list;
  sn_slots : slot_state list;
  sn_bugs : bug_ref list;
}

let schema = "pbse-snapshot/1"

(* --- serialisation --------------------------------------------------------- *)

let event_to_json = function
  | Step { deadline; budget } ->
    Json.Obj [ ("d", Json.Int deadline); ("b", Json.Int budget) ]
  | Crash detail -> Json.Obj [ ("crash", Json.Str detail) ]

let slot_to_json s =
  Json.Obj
    [
      ("ordinal", Json.Int s.sl_ordinal);
      ("bytes", Json.Int s.sl_bytes);
      ("turns", Json.Int s.sl_turns);
      ("granted", Json.Int s.sl_granted);
      ("dwell", Json.Int s.sl_dwell);
      ("new_blocks", Json.Int s.sl_new_blocks);
      ("bugs", Json.Int s.sl_bugs);
      ("quarantined", Json.Int s.sl_quarantined);
      ("strikes", Json.Int s.sl_strikes);
      ("timeouts", Json.Int s.sl_timeouts);
      ("retired", Json.Bool s.sl_retired);
      ("clock", Json.Int s.sl_clock);
      ("coverage", Json.Int s.sl_coverage);
      ("prefix_cap", Json.Int s.sl_prefix_cap);
      ("crash_draws", Json.Int s.sl_crash_draws);
      ("events", Json.List (List.map event_to_json s.sl_events));
    ]

let bug_to_json b =
  Json.Obj
    [
      ("slot", Json.Int b.br_slot);
      ("gid", Json.Int b.br_gid);
      ("kind", Json.Str b.br_kind);
    ]

let int_obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let payload_to_json t =
  Json.Obj
    [
      ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.sn_meta));
      ("deadline", Json.Int t.sn_deadline);
      ("spent", Json.Int t.sn_spent);
      ("rounds", Json.Int t.sn_rounds);
      ("parallel_turns", Json.Int t.sn_parallel_turns);
      ("merge_blocks", Json.Int t.sn_merge_blocks);
      ("merge_bugs", Json.Int t.sn_merge_bugs);
      ("checkpoints", Json.Int t.sn_checkpoints);
      ("degrade_faults", Json.Int t.sn_degrade_faults);
      ( "sched",
        Json.Obj
          [
            ("turns", Json.Int t.sn_sched_turns);
            ("rotations", Json.Int t.sn_sched_rotations);
            ("retirements", Json.Int t.sn_sched_retirements);
          ] );
      ("pool_faults", int_obj t.sn_pool_faults);
      ("opened", Json.List (List.map (fun o -> Json.Int o) t.sn_opened));
      ("counters", int_obj t.sn_counters);
      ("slots", Json.List (List.map slot_to_json t.sn_slots));
      ("bugs", Json.List (List.map bug_to_json t.sn_bugs));
    ]

let to_string t = Sealed_file.seal ~schema (payload_to_json t)

(* --- parsing --------------------------------------------------------------- *)

type error = Sealed_file.error =
  | Corrupt of string
  | Version_mismatch of string

let error_message = function
  | Corrupt msg -> Printf.sprintf "corrupt snapshot: %s" msg
  | Version_mismatch msg -> Printf.sprintf "snapshot version mismatch: %s" msg

(* the checksum vouches for integrity, so field decoding can be lenient:
   a missing field decodes to its zero value *)
let get_int field json =
  match Option.bind (Json.member field json) Json.to_int with Some i -> i | None -> 0

let get_bool field json =
  match Option.bind (Json.member field json) Json.to_bool with
  | Some b -> b
  | None -> false

let int_pairs field json =
  match Json.member field json with
  | Some (Json.Obj kvs) ->
    List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.to_int v)) kvs
  | _ -> []

let get_list field json =
  match Option.bind (Json.member field json) Json.to_list with
  | Some items -> items
  | None -> []

let event_of_json json =
  match Option.bind (Json.member "crash" json) Json.to_str with
  | Some detail -> Crash detail
  | None -> Step { deadline = get_int "d" json; budget = get_int "b" json }

let slot_of_json json =
  {
    sl_ordinal = get_int "ordinal" json;
    sl_bytes = get_int "bytes" json;
    sl_turns = get_int "turns" json;
    sl_granted = get_int "granted" json;
    sl_dwell = get_int "dwell" json;
    sl_new_blocks = get_int "new_blocks" json;
    sl_bugs = get_int "bugs" json;
    sl_quarantined = get_int "quarantined" json;
    sl_strikes = get_int "strikes" json;
    sl_timeouts = get_int "timeouts" json;
    sl_retired = get_bool "retired" json;
    sl_clock = get_int "clock" json;
    sl_coverage = get_int "coverage" json;
    sl_prefix_cap = get_int "prefix_cap" json;
    sl_crash_draws = get_int "crash_draws" json;
    sl_events = List.map event_of_json (get_list "events" json);
  }

let bug_of_json json =
  {
    br_slot = get_int "slot" json;
    br_gid = get_int "gid" json;
    br_kind =
      (match Option.bind (Json.member "kind" json) Json.to_str with
       | Some s -> s
       | None -> "");
  }

let payload_of_json json =
  let sched =
    match Json.member "sched" json with Some s -> s | None -> Json.Obj []
  in
  {
    sn_meta =
      (match Json.member "meta" json with
       | Some (Json.Obj kvs) ->
         List.filter_map
           (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
           kvs
       | _ -> []);
    sn_deadline = get_int "deadline" json;
    sn_spent = get_int "spent" json;
    sn_rounds = get_int "rounds" json;
    sn_parallel_turns = get_int "parallel_turns" json;
    sn_merge_blocks = get_int "merge_blocks" json;
    sn_merge_bugs = get_int "merge_bugs" json;
    sn_checkpoints = get_int "checkpoints" json;
    sn_degrade_faults = get_int "degrade_faults" json;
    sn_sched_turns = get_int "turns" sched;
    sn_sched_rotations = get_int "rotations" sched;
    sn_sched_retirements = get_int "retirements" sched;
    sn_pool_faults = int_pairs "pool_faults" json;
    sn_opened = List.filter_map Json.to_int (get_list "opened" json);
    sn_counters = int_pairs "counters" json;
    sn_slots = List.map slot_of_json (get_list "slots" json);
    sn_bugs = List.map bug_of_json (get_list "bugs" json);
  }

let of_string text =
  Result.map payload_of_json (Sealed_file.unseal ~schema text)

(* --- files ----------------------------------------------------------------- *)

(* atomic: write aside then rename into place, keeping the previous
   checkpoint as [path].bak so a corrupt write has a fallback *)
let save_string = Sealed_file.write_atomic
let save ~path t = save_string ~path (to_string t)

let load ~path =
  match Sealed_file.read_file ~path with
  | Error e -> Error (Corrupt e)
  | Ok text -> of_string text
