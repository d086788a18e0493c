(* Correctness checks that do not trust the engine's own verdicts.

   Every check is counted: [attempted] grows by one per check, [failed]
   by one per check that did not hold, and each failure is described on
   stderr. A run is correct only when nothing failed. *)

module Bug = Pbse_exec.Bug
module Concrete = Pbse_exec.Concrete
module Registry = Pbse_targets.Registry

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

let check o label ok =
  o.attempted <- o.attempted + 1;
  if not ok then begin
    o.failed <- o.failed + 1;
    Printf.eprintf "check failed: %s\n%!" label
  end

(* Hand-written planted-bug table: (target, faulting function, fault
   kind, label). It restates, independently of the executor, where each
   target's planted bugs live; the same table drives the paper's Table
   III in bench/main.ml. parse_die carries two oob-reads — the abbrev
   lookup faults in an earlier block than the sibling reference. *)
let bug_label_table =
  [
    ("readelf", "read_name", "oob-read", "strtab-name-oob-read");
    ("readelf", "process_symbols", "oob-write", "symbol-version-oob-write");
    ("readelf", "process_dynamic", "oob-read", "dynamic-strtab-oob-read");
    ("readelf", "process_note", "oob-write", "note-alloc-overflow");
    ("pngtest", "handle_time", "oob-read", "time-month-oob-read");
    ("pngtest", "check_keyword", "oob-read", "keyword-trim-underflow");
    ("gif2tiff", "write_tiff", "oob-read", "colormap-oob-read");
    ("gif2tiff", "lzw_decode_block", "oob-write", "lzw-stack-oob-write");
    ("tiff2rgba", "put_cielab", "oob-read", "cielab-oob-read");
    ("tiff2bw", "average_samples", "oob-read", "spp-oob-read");
    ("tiff2bw", "invert_min_is_white", "oob-write", "invert-row-oob-write");
    ("dwarfdump", "parse_die", "oob-read", "abbrev-code-oob-read");
    ("dwarfdump", "parse_die", "oob-read", "sibling-ref-oob-read");
    ("dwarfdump", "parse_die", "null-deref", "null-abbrev-table-deref");
    ("dwarfdump", "main", "oob-read", "cu-name-oob-read");
    ("dwarfdump", "read_str", "oob-read", "form-string-oob-read");
    ("dwarfdump", "parse_line_program", "oob-read", "line-file-index-oob-read");
    ("dwarfdump", "parse_line_program", "oob-write", "line-ftable-alloc-overflow");
  ]

let func_of (bug : Bug.t) =
  match String.index_opt bug.Bug.location '/' with
  | Some i -> String.sub bug.Bug.location 0 i
  | None -> bug.Bug.location

(* Each bug must map to a planted label of its target, and the registry's
   ground truth must list that label with the same fault kind. Bugs of
   one (function, kind) group take the group's labels in block order; a
   bug beyond the group's last label, or in a group the table does not
   list, maps to no label and fails. *)
let labels o ~target (bugs : Bug.t list) =
  let t = Registry.by_name target in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (b : Bug.t) ->
      let key = (func_of b, b.Bug.kind) in
      Hashtbl.replace groups key (b :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
    bugs;
  Hashtbl.iter
    (fun (func, kind) group ->
      let ordered = List.sort (fun a b -> Int.compare a.Bug.gid b.Bug.gid) group in
      let candidates =
        List.filter_map
          (fun (t', f, k, label) -> if t' = target && f = func && k = kind then Some label else None)
          bug_label_table
      in
      List.iteri
        (fun i (b : Bug.t) ->
          let label = List.nth_opt candidates i in
          let planted =
            match (label, t) with
            | Some l, Some t -> List.assoc_opt l t.Registry.planted_bugs = Some kind
            | _ -> false
          in
          check o
            (Printf.sprintf "%s: bug %s at %s maps to a planted label" target b.Bug.kind
               b.Bug.location)
            planted)
        ordered)
    groups

(* Replay a witness through the concrete interpreter (not the symbolic
   executor that produced it) and require a fault of the reported kind. *)
let replays o ~target prog (bug : Bug.t) =
  let ok =
    match (Concrete.run prog ~input:bug.Bug.witness).Concrete.outcome with
    | Concrete.Fault { kind; _ } -> kind = bug.Bug.kind
    | Concrete.Exit _ | Concrete.Halted _ | Concrete.Out_of_fuel -> false
  in
  check o (Printf.sprintf "%s: witness of %s at %s replays" target bug.Bug.kind bug.Bug.location) ok;
  ok

(* Distinct bugs of one target whose witnesses replay, after labelling. *)
let confirmed_bugs o ~target prog (bugs : Bug.t list) =
  let seen = Hashtbl.create 16 in
  let distinct =
    List.filter
      (fun b ->
        let k = Bug.dedup_key b in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      bugs
  in
  labels o ~target distinct;
  List.length (List.filter (replays o ~target prog) distinct)

let same o label a b = check o label (String.equal a b)
