(* The repository benchmark: one workload per process.

     pbench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it sets the workload up in timed batches (setup_s is
   the median batch), then times as many units of work as fit S seconds
   at the workload's nominal unit time, and reports medians over units
   of wall and CPU time corrected for the host's steal and speed. With
   --trace 1 it instead runs untraced and traced units in pairs, timing
   every call into a layer's public API from here (no spans inside the
   engine), and reports per-layer figures, the layer x workload share
   table and the tracing overhead.
   Both modes run the correctness oracle; the last stdout line is one
   JSON object {correct, attempted, failed, metrics}. *)

module Registry = Pbse_targets.Registry
module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Runtime = Pbse_session.Runtime
module Session_store = Pbse_session.Session_store
module Executor = Pbse_exec.Executor
module Coverage = Pbse_exec.Coverage
module Solver = Pbse_smt.Solver
module Concolic = Pbse_concolic.Concolic
module Trace = Pbse_concolic.Trace
module Phase = Pbse_phase.Phase
module Snapshot = Pbse_campaign.Snapshot
module Protocol = Pbse_serve.Protocol
module Transport = Pbse_serve.Transport
module Report = Pbse_telemetry.Report
module Telemetry = Pbse_telemetry.Telemetry
module Rng = Pbse_util.Rng

(* one paper-hour of virtual time, as in the CLI's --hours *)
let hour = 120_000

let target name =
  match Registry.by_name name with Some t -> t | None -> failwith ("unknown target " ^ name)

let ms s = s *. 1000.0
let mwords w = w /. 1e6
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fdiv a b = if b = 0.0 then 0.0 else a /. b

(* scratch files (checkpoints, sockets, store files) live in the checkout,
   in a directory of this process's own *)
let work_root = ".perfbench"
let work_dir = Filename.concat work_root (string_of_int (Unix.getpid ()))

let scratch name =
  List.iter (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755) [ work_root; work_dir ];
  Filename.concat work_dir name

let remove_scratch () =
  if Sys.file_exists work_dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat work_dir f)) (Sys.readdir work_dir);
    Unix.rmdir work_dir;
    try Unix.rmdir work_root with Unix.Unix_error _ -> ()
  end

(* --- set-up --------------------------------------------------------------------

   The set-up a user pays before the first request: compiling the
   workload's MiniC targets (bypassing the registry's memo, so every
   repetition compiles) and, per workload, building its inputs. *)

let compile_targets names =
  List.iter (fun n -> ignore (Pbse_lang.Frontend.compile (target n).Registry.source)) names

(* One set-up takes a millisecond or a few, too short to time alone, so
   set-up is timed in batches of [per] back-to-back set-ups, about 50 ms,
   each batch from a quiescent heap. A fixed batch size keeps the heap's
   history, and so the units' peak heap, the same from run to run.
   [measure_setup ~reps] gives, per batch, the mean set-up wall and the
   mean compile wall inside it. Timed runs take batches before the first
   unit and more before every unit, once the previous unit's state is
   gone, so the set-up median spans the same stretch of time as the units
   do. *)
let measure_setup ~reps ~per ~targets extra =
  let batches =
    List.init reps (fun _ ->
        Gc.full_major ();
        let compile = ref 0.0 in
        let t0 = Probe.now () in
        for _ = 1 to per do
          let c0 = Probe.now () in
          compile_targets targets;
          compile := !compile +. (Probe.now () -. c0);
          extra ()
        done;
        let n = float_of_int per in
        ((Probe.now () -. t0) /. n, !compile /. n))
  in
  (* the workload then uses the registry's memoised programs *)
  List.iter (fun n -> ignore (Registry.program (target n))) targets;
  (List.map fst batches, List.map snd batches)

let first_setup_reps = 15
let between_setup_reps = 5

(* --- shared reporting ----------------------------------------------------------- *)

let render_report ?(meta = []) r = Report.to_json (Session.run_report ~meta r)

let coverage_of (r : Session.report) = Coverage.count (Executor.coverage r.Session.executor)

(* engine counters summed over finished sessions *)
let engine_counters (reports : Session.report list) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let ex f = sum (fun (r : Session.report) -> f (Executor.stats r.Session.executor)) in
  let sv f =
    sum (fun (r : Session.report) -> f (Solver.stats (Executor.solver r.Session.executor)))
  in
  let rows f =
    sum (fun (r : Session.report) ->
        List.fold_left (fun a row -> a + f row) 0 r.Session.phase_stats)
  in
  let queries = sv (fun s -> s.Solver.queries) in
  let hits = ex (fun s -> s.Executor.interpolant_hits) in
  let c name v = (name, float_of_int v, "count") in
  let r name v = (name, v, "ratio") in
  [
    c "exec.instructions" (ex (fun s -> s.Executor.instructions));
    c "exec.forks" (ex (fun s -> s.Executor.forks));
    c "exec.cow_copies" (ex (fun s -> s.Executor.cow_copies));
    c "smt.queries" queries;
    c "smt.work" (sv (fun s -> s.Solver.work));
    c "smt.search_nodes" (sv (fun s -> s.Solver.search_nodes));
    r "smt.cache_hit_ratio" (ratio (sv (fun s -> s.Solver.cache_hits)) queries);
    r "smt.prefix_hit_ratio"
      (ratio
         (sv (fun s -> s.Solver.prefix_hits))
         (sv (fun s -> s.Solver.prefix_hits + s.Solver.prefix_builds)));
    r "smt.unknown_ratio" (ratio (sv (fun s -> s.Solver.unknown)) queries);
    r "pathcond.subsume_hit_ratio"
      (ratio hits (hits + ex (fun s -> s.Executor.interpolant_misses)));
    c "pathcond.subsumed_states" (ex (fun s -> s.Executor.subsumed_states));
    c "pathcond.loop_summaries" (ex (fun s -> s.Executor.loop_summaries));
    c "pathcond.summary_fallbacks" (ex (fun s -> s.Executor.summary_fallbacks));
    c "sched.turns" (sum (fun r -> r.Session.sched_stats.Pbse_sched.Scheduler.turns));
    c "sched.rotations" (sum (fun r -> r.Session.sched_stats.Pbse_sched.Scheduler.rotations));
    r "sched.new_cover_ratio"
      (ratio (rows (fun row -> row.Report.new_cover)) (rows (fun row -> row.Report.slices)));
  ]

let gc_counters (c : Probe.cost) =
  [
    ("gc.minor_collections", float_of_int c.Probe.minor_gcs, "count");
    ("gc.major_collections", float_of_int c.Probe.major_gcs, "count");
    ("gc.promoted_mwords", mwords c.Probe.promoted_w, "Mwords");
  ]

(* What one workload hands back: its end-to-end figures (timed mode) or
   its per-layer figures plus layer self times (traced mode). *)
type timed = {
  setup : float list; (* set-up walls, s, scaled by the host's speed *)
  costs : Probe.cost list; (* one per unit of work *)
  speed : float list; (* the host's speed around each unit *)
  coverage : int;
  bugs : int;
  cold_ms : float list;
  warm_ms : float list;
}

type traced = {
  layers : (string * float * string) list;
  self_s : (string * float) list; (* layer -> self seconds in the traced unit *)
  traced_wall : float;
  untraced_wall : float;
}

(* How many units a run times: --seconds over the workload's nominal unit
   wall time, at least [least]. The nominal times were measured on a
   2-vCPU x86-64 VM; they are fixed, so every run of a workload at one
   --seconds times the same number of units whatever the engine's speed,
   and a median over units always ranges over as many samples. *)
let unit_count ~seconds ~nominal ~least = max least (int_of_float (Float.round (seconds /. nominal)))

(* The first unit in a process grows the heap from nothing and runs
   slower than later ones (by up to a third on triage-all); the traced mode
   runs one untimed before its pairs, so neither side of a pair pays for
   it. *)
let warm_up f =
  ignore (f ());
  Gc.full_major ()

(* [n] wall times of the reference kernel, each run in a fresh process of
   this executable: the kernel then meets the same heap and a single
   domain every time, whatever state the workload has left behind. *)
let fresh_kernel_walls n =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--kernel"; string_of_int n |] in
  let walls = List.init n (fun _ -> float_of_string (input_line ic)) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> walls
  | _ -> failwith "the reference kernel's process failed"

(* Run [f] [n] times (at least once). [f] returns a small per-unit
   result, kept for every unit, and the unit's engine state, kept only for
   the last unit: the tail call drops it, and a full major collection runs
   before the next unit starts, outside its timing, so every unit starts
   from a quiescent heap. The reference kernel runs 8 times before and 8
   times after every call; with each small result comes the host's speed
   around it, the kernel's reference time over its median time. *)
let repeat n f =
  let rec go i acc =
    let before = fresh_kernel_walls 8 in
    let small, big = f () in
    let speed = Probe.reference_kernel_s /. Probe.median (before @ fresh_kernel_walls 8) in
    let acc = (small, speed) :: acc in
    if i < n then go (i + 1) acc else (List.rev acc, big)
  in
  go 1 []

(* Set-up batches scaled by the host's speed: the batches taken before
   the first unit and each unit's own batches by that unit's speed. *)
let scaled_setup setup0 per_unit speeds =
  let scale s = List.map (fun x -> x *. s) in
  scale (List.hd speeds) setup0 @ List.concat (List.map2 scale speeds per_unit)

(* --- deep-dwarfdump ------------------------------------------------------------- *)

let deep_deadline = 10 * hour
let deep_nominal = 9.0

(* Session.run, spelled open + step + finish so the traced unit can time
   each call; [on_exec] installs the calibration sampler for the step and
   returns the call that closes its series. *)
let deep_unit ?tracer ?on_exec prog seed =
  let sp name f = Probe.maybe_span tracer name f in
  let s = sp "session.open" (fun () -> Session.open_session prog ~seed ~deadline:deep_deadline) in
  let exec = Session.session_executor s in
  let close = match on_exec with Some f -> f exec | None -> ignore in
  sp "session.step" (fun () -> Session.step_session s ~deadline:deep_deadline);
  close ();
  Executor.set_trace exec None;
  let r = sp "session.finish" (fun () -> Session.finish_session s) in
  let json = sp "session.render" (fun () -> render_report r) in
  (s, r, json)

(* Sub-millisecond latencies: 5 samples, each the mean of [per]
   back-to-back calls, in ms. The batches start from a quiescent heap, so
   a major cycle left running by the preceding unit is not billed to them. *)
let batched_ms ~per f =
  Gc.full_major ();
  List.init 5 (fun _ ->
      let t0 = Probe.now () in
      for _ = 1 to per do
        f ()
      done;
      ms (Probe.now () -. t0) /. float_of_int per)

(* Re-serving a finished result from live state: finish + report + JSON. *)
let refinish s = ignore (render_report (Session.finish_session s))

(* Concolic.run and Phase.divide as standalone calls, configured as the
   session configures them; the division must agree with the session's. *)
let standalone_division oracle ~label prog ~seed ~deadline (session_div : Phase.division) =
  let config = Session.default_config in
  let rt =
    Runtime.create ~rng_seed:config.Session.rng_seed ~inject:config.Session.robust.Session.inject
      ~max_strikes:config.Session.robust.Session.max_strikes
      ~prefix_cap:config.Session.solver.Session.prefix_cap ()
  in
  Runtime.activate rt;
  let clock = Pbse_util.Vclock.create () in
  let exec =
    Executor.create ~max_live:config.Session.search.Session.max_live
      ~solver_budget:config.Session.solver.Session.budget
      ~solver_retry_cap:config.Session.solver.Session.retry_cap
      ~solver_prefix_cap:config.Session.solver.Session.prefix_cap
      ~confirm_bugs:config.Session.robust.Session.confirm_bugs ~inject:rt.Runtime.inject
      ~subsumption:config.Session.pathcond.Session.subsumption
      ~loop_summaries:config.Session.pathcond.Session.loop_summaries
      ~registry:rt.Runtime.registry ~clock prog ~input:seed
  in
  let interval_length = Session.interval_length_for config prog ~seed in
  let conc, c_cost =
    Probe.measure (fun () -> Concolic.run ~interval_length ~deadline exec (Trace.indexer ()))
  in
  let div, d_cost =
    Probe.measure (fun () ->
        Phase.divide ~registry:rt.Runtime.registry ~mode:config.Session.concolic.Session.mode
          ~max_k:config.Session.search.Session.max_k (Rng.split rt.Runtime.rng)
          conc.Concolic.bbvs)
  in
  Oracle.check oracle
    (label ^ ": standalone division matches the session's k and trap count")
    (div.Phase.k = session_div.Phase.k && div.Phase.trap_count = session_div.Phase.trap_count);
  (conc, c_cost, d_cost)

let deep_setup reps =
  measure_setup ~reps ~per:25 ~targets:[ "dwarfdump" ] (fun () ->
      ignore (Registry.default_seed (target "dwarfdump")))

let deep_correct oracle prog jsons (r : Session.report) =
  (match jsons with
   | first :: rest ->
     List.iteri
       (fun i j -> Oracle.same oracle (Printf.sprintf "deep-dwarfdump: run %d report" (i + 2)) first j)
       rest
   | [] -> ());
  Oracle.confirmed_bugs oracle ~target:"dwarfdump" prog (List.map fst r.Session.bugs)

let deep_timed oracle ~seconds =
  let t = target "dwarfdump" in
  let setup0, _ = deep_setup first_setup_reps in
  let prog = Registry.program t in
  let seed = Registry.default_seed t in
  let runs, (_, r) =
    repeat (unit_count ~seconds ~nominal:deep_nominal ~least:2) (fun () ->
        let setup = fst (deep_setup between_setup_reps) in
        let (s, r, json), c = Probe.measure (fun () -> deep_unit prog seed) in
        let warm = batched_ms ~per:50 (fun () -> refinish s) in
        ((json, c, warm, setup), (s, r)))
  in
  let runs, speeds = List.split runs in
  let bugs = deep_correct oracle prog (List.map (fun (j, _, _, _) -> j) runs) r in
  {
    setup = scaled_setup setup0 (List.map (fun (_, _, _, su) -> su) runs) speeds;
    costs = List.map (fun (_, c, _, _) -> c) runs;
    speed = speeds;
    coverage = coverage_of r;
    bugs;
    cold_ms = List.map (fun (_, c, _, _) -> ms c.Probe.wall) runs;
    warm_ms = List.concat_map (fun (_, _, w, _) -> w) runs;
  }

(* Calibration sampler: every 1024 block entries of the step, record
   (wall, instructions, solver work, queries). Reads counters only, so
   the run's report is unchanged. *)
let sampler samples exec =
  let st = Executor.stats exec in
  let solver = Executor.solver exec in
  let take () =
    let ss = Solver.stats solver in
    samples :=
      (Probe.now (), st.Executor.instructions, ss.Solver.work, ss.Solver.queries) :: !samples
  in
  take ();
  let n = ref 0 in
  Executor.set_trace exec
    (Some
       (fun _ ->
         incr n;
         if !n land 1023 = 0 then take ()));
  take

let calibrate samples =
  let rec deltas acc = function
    | (t1, i1, w1, q1) :: ((t0, i0, w0, q0) :: _ as rest) ->
      let x = [| float_of_int (i1 - i0); float_of_int (w1 - w0); float_of_int (q1 - q0) |] in
      deltas ((x, (t1 -. t0) *. 1e9) :: acc) rest
    | _ -> acc
  in
  let rows = deltas [] samples in
  let b, r2 = Probe.fit_nonneg rows in
  if Array.length b = 3 then (b.(0), b.(1), b.(2), r2, List.length rows) else (0.0, 0.0, 0.0, 0.0, 0)

let deep_traced oracle ~seconds =
  let t = target "dwarfdump" in
  let compile_s = Probe.median (snd (deep_setup first_setup_reps)) in
  let prog = Registry.program t in
  let seed = Registry.default_seed t in
  warm_up (fun () -> deep_unit prog seed);
  let pairs, (tr, samples, r) =
    repeat (unit_count ~seconds ~nominal:(2.0 *. deep_nominal) ~least:1) (fun () ->
        let (_, _, json_u), cost_u = Probe.measure (fun () -> deep_unit prog seed) in
        Gc.full_major ();
        let tr = Probe.tracer () in
        let samples = ref [] in
        let (_, r, json_t), _ =
          Probe.measure (fun () ->
              Probe.span tr "unit" (fun () ->
                  deep_unit ~tracer:tr ~on_exec:(sampler samples) prog seed))
        in
        Oracle.same oracle "deep-dwarfdump: traced report equals untraced" json_u json_t;
        (cost_u, (tr, !samples, r)))
  in
  let cost_u = fst (List.hd (List.rev pairs)) in
  (* the standalone calls are cheap here: take the median of three *)
  let standalone =
    List.init 3 (fun _ ->
        standalone_division oracle ~label:"deep-dwarfdump" prog ~seed ~deadline:deep_deadline
          r.Session.division)
  in
  let by_wall pick =
    let sorted =
      List.sort (fun a b -> Float.compare (pick a).Probe.wall (pick b).Probe.wall) standalone
    in
    pick (List.nth sorted 1)
  in
  let conc, _, _ = List.hd standalone in
  let c_cost = by_wall (fun (_, c, _) -> c) and d_cost = by_wall (fun (_, _, d) -> d) in
  ignore (Oracle.confirmed_bugs oracle ~target:"dwarfdump" prog (List.map fst r.Session.bugs));
  let ns_instr, ns_work, ns_query, r2, nrows = calibrate samples in
  let d_instr, d_work, d_query =
    match (samples, List.rev samples) with
    | (_, i1, w1, q1) :: _, (_, i0, w0, q0) :: _ -> (i1 - i0, w1 - w0, q1 - q0)
    | _ -> (0, 0, 0)
  in
  let exec_s = ns_instr *. float_of_int d_instr *. 1e-9 in
  let smt_s = ((ns_work *. float_of_int d_work) +. (ns_query *. float_of_int d_query)) *. 1e-9 in
  let open_s = Probe.total tr "session.open" in
  let step_s = Probe.total tr "session.step" in
  let report_s = Probe.total tr "session.finish" +. Probe.total tr "session.render" in
  let wall = Probe.total tr "unit" in
  let seed_s = open_s -. c_cost.Probe.wall -. d_cost.Probe.wall in
  let layers =
    [
      ("lang.compile_ms", ms compile_s, "ms");
      ("concolic.ms", ms c_cost.Probe.wall, "ms");
      ("concolic.alloc_mwords", mwords c_cost.Probe.alloc, "Mwords");
      ( "concolic.ns_per_vunit",
        fdiv (c_cost.Probe.wall *. 1e9) (float_of_int conc.Concolic.c_time),
        "ns" );
      ("phase.divide_ms", ms d_cost.Probe.wall, "ms");
      ("phase.alloc_mwords", mwords d_cost.Probe.alloc, "Mwords");
      ("phase.bbvs", float_of_int (List.length conc.Concolic.bbvs), "count");
      ("session.open_ms", ms open_s, "ms");
      ("session.seed_ms", ms seed_s, "ms");
      ("session.step_ms", ms step_s, "ms");
      ("session.report_ms", ms report_s, "ms");
      ("exec.ns_per_instr", ns_instr, "ns");
      ("exec.share", fdiv exec_s wall, "ratio");
      ("smt.ns_per_work", ns_work, "ns");
      ("smt.ns_per_query", ns_query, "ns");
      ("smt.share", fdiv smt_s wall, "ratio");
      ("calib.r2", r2, "ratio");
      ("calib.samples", float_of_int nrows, "count");
    ]
    @ engine_counters [ r ]
    @ gc_counters cost_u
  in
  {
    layers;
    self_s =
      [
        ("concolic", c_cost.Probe.wall);
        ("phase", d_cost.Probe.wall);
        (* open's self time (session.seed_ms, a difference of spans) and
           the part of the step the calibration fit does not explain are
           left to [other] *)
        ("exec", exec_s);
        ("smt", smt_s);
        ("report", report_s);
      ];
    traced_wall = wall;
    untraced_wall = cost_u.Probe.wall;
  }

(* --- triage-all -------------------------------------------------------------- *)

let triage_deadline = 10 * hour
let triage_nominal = 6.5

(* every seed of every target, benign and bug-triggering, in registry
   order. The order is fixed, not drawn from the workload seed: it moves
   allocation by a few words per million, and allocation must repeat
   exactly from run to run. *)
let triage_inputs () =
  List.concat_map
    (fun (t : Registry.t) ->
      List.map (fun (label, seed) -> (t, label, seed)) (t.Registry.seeds @ t.Registry.buggy_seeds))
    Registry.all

let triage_setup reps =
  measure_setup ~reps ~per:6
    ~targets:(List.map (fun (t : Registry.t) -> t.Registry.name) Registry.all)
    (fun () -> ignore (triage_inputs ()))

(* open_session + finish_session + run_report on one seed *)
let triage_one ?tracer (t : Registry.t) seed =
  let sp name f = Probe.maybe_span tracer name f in
  let prog = Registry.program t in
  let s = sp "session.open" (fun () -> Session.open_session prog ~seed ~deadline:triage_deadline) in
  let r = sp "session.finish" (fun () -> Session.finish_session s) in
  let json = sp "session.render" (fun () -> render_report r) in
  (s, r, json)

(* every seed in turn, with its wall time; [after] runs after each
   seed, outside its timing and its "seed" span. A seed is timed by the
   clock alone: a full [Probe.measure] here would read /proc inside the
   unit's own measure, and the allocation figure would vary with the
   length of what it read. *)
let triage_unit ?tracer ?(after = fun _ _ _ _ -> ()) inputs =
  List.map
    (fun ((t : Registry.t), label, seed) ->
      let t0 = Probe.now () in
      let s, r, json = Probe.maybe_span tracer "seed" (fun () -> triage_one ?tracer t seed) in
      let wall = Probe.now () -. t0 in
      after t label s r;
      ((t.Registry.name, label), (t, s, r, json), wall))
    inputs

(* per-target union of covered blocks, and distinct replayed bugs *)
let triage_outcome oracle results =
  let by_target = Hashtbl.create 8 in
  List.iter
    (fun (_, ((t : Registry.t), _, (r : Session.report), _), _) ->
      let cov, bugs =
        Option.value (Hashtbl.find_opt by_target t.Registry.name) ~default:(Hashtbl.create 64, [])
      in
      List.iter (fun b -> Hashtbl.replace cov b ()) (Coverage.covered_ids (Executor.coverage r.Session.executor));
      Hashtbl.replace by_target t.Registry.name (cov, List.map fst r.Session.bugs @ bugs))
    results;
  Hashtbl.fold
    (fun name (cov, bugs) (c, b) ->
      let prog = Registry.program (target name) in
      (c + Hashtbl.length cov, b + Oracle.confirmed_bugs oracle ~target:name prog bugs))
    by_target (0, 0)

(* every seed's report must repeat the first unit's, byte for byte *)
let check_triage_repeat oracle ~what first results =
  List.iter2
    (fun (k, j0) (_, j) ->
      Oracle.same oracle (Printf.sprintf "triage-all: %s/%s %s" (fst k) (snd k) what) j0 j)
    first results

let triage_jsons results = List.map (fun (k, (_, _, _, json), _) -> (k, json)) results

let triage_timed oracle ~seconds =
  let setup0, _ = triage_setup first_setup_reps in
  let inputs = triage_inputs () in
  let runs, last =
    repeat (unit_count ~seconds ~nominal:triage_nominal ~least:2) (fun () ->
        let setup = fst (triage_setup between_setup_reps) in
        let results, c = Probe.measure (fun () -> triage_unit inputs) in
        let sessions = List.map (fun (_, (_, s, _, _), _) -> s) results in
        let n = float_of_int (List.length sessions) in
        let warm =
          List.map (fun m -> m /. n) (batched_ms ~per:2 (fun () -> List.iter refinish sessions))
        in
        ( ( triage_jsons results,
            List.map (fun (_, _, wall) -> ms wall) results,
            c,
            warm,
            setup ),
          results ))
  in
  let runs, speeds = List.split runs in
  let first, _, _, _, _ = List.hd runs in
  List.iter (fun (jsons, _, _, _, _) -> check_triage_repeat oracle ~what:"report repeats" first jsons) runs;
  let coverage, bugs = triage_outcome oracle last in
  {
    setup = scaled_setup setup0 (List.map (fun (_, _, _, _, su) -> su) runs) speeds;
    costs = List.map (fun (_, _, c, _, _) -> c) runs;
    speed = speeds;
    coverage;
    bugs;
    cold_ms = List.concat_map (fun (_, seed_ms, _, _, _) -> seed_ms) runs;
    warm_ms = List.concat_map (fun (_, _, _, w, _) -> w) runs;
  }

let triage_traced oracle ~seconds =
  let compile_s = Probe.median (snd (triage_setup first_setup_reps)) in
  let inputs = triage_inputs () in
  warm_up (fun () -> triage_unit inputs);
  let pairs, (tr, counters, standalone) =
    repeat (unit_count ~seconds ~nominal:(2.0 *. triage_nominal) ~least:1) (fun () ->
        let untraced, cost_u = Probe.measure (fun () -> triage_jsons (triage_unit inputs)) in
        Gc.full_major ();
        let tr = Probe.tracer () in
        (* each seed's standalone concolic run and division follow its
           session, outside the seed's span: both are timed in the same
           stretch of time and the same heap *)
        let standalone = ref [] in
        let after (t : Registry.t) label s (r : Session.report) =
          standalone :=
            standalone_division oracle
              ~label:(Printf.sprintf "triage-all: %s/%s" t.Registry.name label)
              (Registry.program t) ~seed:(Session.session_seed s) ~deadline:triage_deadline
              r.Session.division
            :: !standalone
        in
        let traced = triage_unit ~tracer:tr ~after inputs in
        check_triage_repeat oracle ~what:"traced report equals untraced" untraced
          (triage_jsons traced);
        ignore (triage_outcome oracle traced);
        (cost_u, (tr, engine_counters (List.map (fun (_, (_, _, r, _), _) -> r) traced), !standalone)))
  in
  let cost_u = fst (List.hd (List.rev pairs)) in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 standalone in
  let conc_s = sum (fun (_, c, _) -> c.Probe.wall) and conc_w = sum (fun (_, c, _) -> c.Probe.alloc) in
  let div_s = sum (fun (_, _, d) -> d.Probe.wall) and div_w = sum (fun (_, _, d) -> d.Probe.alloc) in
  let vunits = sum (fun (conc, _, _) -> float_of_int conc.Concolic.c_time) in
  let bbvs = sum (fun (conc, _, _) -> float_of_int (List.length conc.Concolic.bbvs)) in
  let open_s = Probe.total tr "session.open" in
  let report_s = Probe.total tr "session.finish" +. Probe.total tr "session.render" in
  let wall = Probe.total tr "seed" in
  let seed_s = open_s -. conc_s -. div_s in
  let layers =
    [
      ("lang.compile_ms", ms compile_s, "ms");
      ("concolic.ms", ms conc_s, "ms");
      ("concolic.alloc_mwords", mwords conc_w, "Mwords");
      ("concolic.ns_per_vunit", fdiv (conc_s *. 1e9) vunits, "ns");
      ("phase.divide_ms", ms div_s, "ms");
      ("phase.alloc_mwords", mwords div_w, "Mwords");
      ("phase.bbvs", bbvs, "count");
      ("session.open_ms", ms open_s, "ms");
      ("session.seed_ms", ms seed_s, "ms");
      ("session.report_ms", ms report_s, "ms");
    ]
    @ counters
    @ gc_counters cost_u
  in
  {
    layers;
    self_s =
      [
        ("concolic", conc_s);
        ("phase", div_s);
        (* open's self time, session.seed_ms, is left to [other] *)
        ("report", report_s);
      ];
    traced_wall = wall;
    untraced_wall = cost_u.Probe.wall;
  }

(* --- pool-dwarfdump-j2 --------------------------------------------------------- *)

let pool_deadline = 10 * hour
let pool_nominal = 6.0
let pool_scheduler = "coverage-greedy"

let pool_seeds () = List.map snd (target "dwarfdump").Registry.seeds

let pool_meta = [ ("target", "dwarfdump"); ("seed", "pool") ]

type pool_run = {
  report : Driver.pool_report;
  json : string;
  writes : int;
  ck_path : string;
}

(* one checkpointed campaign at [jobs]; [round_wrap] times rounds *)
let pool_unit ?tracer ?store ?(checkpoint = true) ~jobs prog seeds =
  let sp name f = Probe.maybe_span tracer name f in
  let ck_path = scratch "pool.ckpt" in
  let writes = ref 0 in
  let checkpoint =
    if checkpoint then
      Some
        (Driver.checkpoint ~meta:[ ("target", "dwarfdump") ]
           ~note_ms:(fun _ -> incr writes)
           ~path:ck_path ~every:1 ())
    else None
  in
  let round_wrap = Option.map (fun tr f -> Probe.span tr "campaign.round" f) tracer in
  let report =
    sp "campaign.run_pool" (fun () ->
        Driver.run_pool ~scheduler:pool_scheduler ~jobs ~lease:1 ?checkpoint ?store ~target:"dwarfdump"
          ?round_wrap prog ~seeds ~deadline:pool_deadline)
  in
  let json = sp "campaign.render" (fun () -> Report.to_json (Driver.pool_run_report ~meta:pool_meta report)) in
  { report; json; writes = !writes; ck_path }

let pool_setup reps =
  measure_setup ~reps ~per:25 ~targets:[ "dwarfdump" ] (fun () ->
      ignore (pool_seeds ());
      ignore (scratch "pool.ckpt"))

(* The reference: the same campaign at jobs 1, untimed, with a session
   store whose memo must serve a repeat of it byte-identically. *)
let pool_reference oracle prog seeds =
  let store = Session_store.create () in
  let r, cost = Probe.measure (fun () -> pool_unit ~store ~checkpoint:false ~jobs:1 prog seeds) in
  Oracle.same oracle "pool-dwarfdump-j2: store-served report equals the campaign's" r.json
    (pool_unit ~store ~checkpoint:false ~jobs:2 prog seeds).json;
  (r.json, cost)

let pool_same oracle ~ref_json json =
  Oracle.same oracle "pool-dwarfdump-j2: jobs 2 report equals jobs 1" ref_json json

(* right after each campaign (the next one overwrites the file): the
   campaign wrote checkpoints, and the last one loads *)
let pool_checkpoint_check oracle p =
  Oracle.check oracle "pool-dwarfdump-j2: last checkpoint loads"
    (p.writes > 0 && Result.is_ok (Snapshot.load ~path:p.ck_path))

let pool_bugs oracle prog (p : Driver.pool_report) =
  Oracle.confirmed_bugs oracle ~target:"dwarfdump" prog (List.map fst p.Driver.merged_bugs)

let pool_timed oracle ~seconds =
  let setup0, _ = pool_setup first_setup_reps in
  let prog = Registry.program (target "dwarfdump") in
  let seeds = pool_seeds () in
  let runs, last =
    repeat (unit_count ~seconds ~nominal:pool_nominal ~least:2) (fun () ->
        let setup = fst (pool_setup between_setup_reps) in
        let p, c = Probe.measure (fun () -> pool_unit ~jobs:2 prog seeds) in
        pool_checkpoint_check oracle p;
        let warm =
          batched_ms ~per:20 (fun () ->
              ignore (Report.to_json (Driver.pool_run_report ~meta:pool_meta p.report)))
        in
        ((c, warm, setup, p.json), p.report))
  in
  let runs, speeds = List.split runs in
  (* the jobs-1 reference runs after the timed units, so it cannot shape
     their heap *)
  let ref_json, ref_cost = pool_reference oracle prog seeds in
  List.iter (fun (_, _, _, json) -> pool_same oracle ~ref_json json) runs;
  let costs = List.map (fun (c, _, _, _) -> c) runs in
  (* allocation is read after each campaign's pool has shut down, so it
     must match the single-domain campaign's *)
  let alloc_j2 = Probe.median (List.map (fun c -> c.Probe.alloc) costs) in
  Printf.printf "# alloc check: jobs 2 %.4g words vs jobs 1 %.4g words (ratio %.4f)\n" alloc_j2
    ref_cost.Probe.alloc (fdiv alloc_j2 ref_cost.Probe.alloc);
  Oracle.check oracle "pool-dwarfdump-j2: jobs 2 allocation within 10% of jobs 1"
    (Float.abs (fdiv alloc_j2 ref_cost.Probe.alloc -. 1.0) <= 0.10);
  {
    setup = scaled_setup setup0 (List.map (fun (_, _, su, _) -> su) runs) speeds;
    costs;
    speed = speeds;
    coverage = last.Driver.merged_coverage;
    bugs = pool_bugs oracle prog last;
    cold_ms = List.map (fun c -> ms c.Probe.wall) costs;
    warm_ms = List.concat_map (fun (_, w, _, _) -> w) runs;
  }

let pool_traced oracle ~seconds =
  let compile_s = Probe.median (snd (pool_setup first_setup_reps)) in
  let prog = Registry.program (target "dwarfdump") in
  let seeds = pool_seeds () in
  let ref_json, _ = pool_reference oracle prog seeds in
  let pool_check oracle ~ref_json p =
    pool_same oracle ~ref_json p.json;
    pool_checkpoint_check oracle p
  in
  let pairs, (tr, p) =
    repeat (unit_count ~seconds ~nominal:(2.0 *. pool_nominal) ~least:1) (fun () ->
        let u, cost_u = Probe.measure (fun () -> pool_unit ~jobs:2 prog seeds) in
        pool_check oracle ~ref_json u;
        Gc.full_major ();
        let tr = Probe.tracer () in
        let p, _ =
          Probe.measure (fun () -> Probe.span tr "unit" (fun () -> pool_unit ~tracer:tr ~jobs:2 prog seeds))
        in
        Oracle.same oracle "pool-dwarfdump-j2: traced report equals untraced" u.json p.json;
        pool_check oracle ~ref_json p;
        (cost_u, (tr, p)))
  in
  let cost_u = fst (List.hd (List.rev pairs)) in
  ignore (pool_bugs oracle prog p.report);
  (* snapshot layer, standalone: load the last checkpoint, then re-write
     it. The campaign's own note_ms reports whole milliseconds of process
     CPU time, and a write takes a fraction of one, so it reads 0; the
     write cost is the median of 7 standalone re-writes instead. *)
  let loaded, load_cost = Probe.measure (fun () -> Driver.load_snapshot ~path:p.ck_path) in
  let bytes = try (Unix.stat p.ck_path).Unix.st_size with Unix.Unix_error _ -> 0 in
  let write_s =
    match loaded with
    | Ok (sn, _) ->
      let path = scratch "rewrite.ckpt" in
      let w =
        Probe.median
          (List.init 7 (fun _ ->
               let _, c = Probe.measure (fun () -> Snapshot.save_string ~path (Snapshot.to_string sn)) in
               c.Probe.wall))
      in
      (try Sys.remove path with Sys_error _ -> ());
      w
    | Error e ->
      Oracle.check oracle ("pool-dwarfdump-j2: checkpoint reloads: " ^ e) false;
      0.0
  in
  let rounds = Probe.durations tr "campaign.round" in
  let rounds_s = List.fold_left ( +. ) 0.0 rounds in
  let run_pool_self = Probe.self tr "campaign.run_pool" in
  let snapshot_s = Float.min run_pool_self (write_s *. float_of_int p.writes) in
  let render_s = Probe.total tr "campaign.render" in
  let wall = Probe.total tr "unit" in
  let layers =
    [
      ("lang.compile_ms", ms compile_s, "ms");
      ("campaign.round_ms_p50", ms (Probe.median rounds), "ms");
      ("campaign.round_ms_max", ms (Probe.maximum rounds), "ms");
      ("campaign.rounds", float_of_int (List.length rounds), "count");
      ("campaign.steals", float_of_int p.report.Driver.pool_steal_count, "count");
      ("campaign.parallel_eff", fdiv cost_u.Probe.cpu_s (2.0 *. cost_u.Probe.wall), "ratio");
      ("snapshot.write_ms", ms (write_s *. float_of_int p.writes), "ms");
      ("snapshot.writes", float_of_int p.writes, "count");
      ("snapshot.bytes", float_of_int bytes, "bytes");
      ("snapshot.load_ms", ms load_cost.Probe.wall, "ms");
      ("session.report_ms", ms render_s, "ms");
    ]
    @ engine_counters (List.map snd p.report.Driver.runs)
    @ gc_counters cost_u
  in
  {
    layers;
    self_s =
      [
        (* run_pool's own time outside rounds and snapshot writes is
           left to [other] *)
        ("campaign", rounds_s);
        ("snapshot", snapshot_s);
        ("report", render_s);
      ];
    traced_wall = wall;
    untraced_wall = cost_u.Probe.wall;
  }

(* --- serve-mix ------------------------------------------------------------------- *)

(* 24 distinct campaigns: 3 targets x 4 deadlines in hour/8..hour x 2
   pool schedulers. The one-hour gif2tiff campaigns find the mix's bug. *)
let serve_keys =
  List.concat_map
    (fun t ->
      List.concat_map
        (fun d -> List.map (fun s -> (t, d, s)) [ "smallest-first"; "coverage-greedy" ])
        [ hour / 8; hour / 4; hour / 2; hour ])
    [ "gif2tiff"; "tiff2bw"; "tcpdump" ]

let serve_nominal = 7.0

let serve_targets = [ "gif2tiff"; "tiff2bw"; "tcpdump" ]

let request_of ~id (t, d, s) =
  {
    Protocol.rq_id = Some id;
    rq_client = Some "perfbench";
    rq_progress = false;
    rq_target = t;
    rq_deadline = d;
    rq_pool_scheduler = s;
    rq_scheduler = None;
    rq_jobs = None;
    rq_lease = 1;
    rq_share = false;
  }

(* the server's campaign recipe, run locally (reports are jobs-invariant,
   so the reference may use both domains) *)
let serve_local (t, d, s) =
  let tg = target t in
  let config = Driver.default_config in
  let runtime =
    Runtime.create
      ~registry:(Telemetry.Registry.create ~enabled:true ())
      ~rng_seed:config.Driver.rng_seed ~inject:config.Driver.robust.Driver.inject
      ~max_strikes:config.Driver.robust.Driver.max_strikes
      ~prefix_cap:config.Driver.solver.Driver.prefix_cap ()
  in
  let report =
    Driver.run_pool ~config ~scheduler:s ~runtime ~jobs:2 ~lease:1 ~target:t (Registry.program tg)
      ~seeds:(List.map snd tg.Registry.seeds) ~deadline:d
  in
  let meta = [ ("target", t); ("seed", "pool"); ("deadline", string_of_int d) ] in
  (report, Report.to_json (Driver.pool_run_report ~meta report))

let lookup name =
  Option.map (fun t -> (Registry.program t, List.map snd t.Registry.seeds)) (Registry.by_name name)

type server = { control : Transport.control; thread : Thread.t; stats : Pbse.Serve.stats option ref; socket : string }

let boot ~store_file =
  let socket = scratch "serve.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let control = Transport.control_create () in
  let stats = ref None in
  let thread =
    Thread.create
      (fun () ->
        stats :=
          Some
            (Pbse.Serve.serve ~endpoints:[ Transport.Unix_socket socket ] ~jobs:2 ~store_file ~control
               ~lookup ()))
      ()
  in
  let rec wait n =
    if n = 0 then failwith "serve-mix: server socket never came up"
    else if not (Sys.file_exists socket) then begin
      Thread.delay 0.001;
      wait (n - 1)
    end
  in
  wait 10_000;
  { control; thread; stats; socket }

let shutdown srv =
  Transport.request_stop srv.control;
  Thread.join srv.thread;
  Option.get !(srv.stats)

let fresh_store () =
  let path = scratch "store" in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".bak"; path ^ ".tmp" ];
  path

type reply = { key : int; cold : bool; start : float; stop : float; body : (string, string) result }

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* Two closed-loop clients drain a shared queue. The cold phase sends
   every key once, in a seeded order; once every cold reply has arrived,
   the warm phase repeats each key three times, in a second seeded
   order. Warm requests thus measure store hits rather than time spent
   queued behind a cold campaign on the shared domain pool. *)
let serve_mix ~rng_seed srv =
  let st = Random.State.make [| rng_seed |] in
  let keys = Array.of_list serve_keys in
  let all = List.init (Array.length keys) Fun.id in
  let cold_order = shuffle st all in
  let warm_order = shuffle st (List.concat_map (fun k -> [ k; k; k ]) all) in
  let endpoint = Transport.Unix_socket srv.socket in
  let m = Mutex.create () in
  let replies = ref [] in
  let drain ~cold order =
    let queue = ref order in
    let next () =
      Mutex.protect m (fun () ->
          match !queue with
          | k :: rest ->
            queue := rest;
            Some k
          | [] -> None)
    in
    let rec client () =
      match next () with
      | None -> ()
      | Some k ->
        let line = Protocol.render_request (request_of ~id:(string_of_int k) keys.(k)) in
        let start = Probe.now () in
        let body =
          match Pbse.Serve.request ~timeout:120.0 ~connect:endpoint line with
          | Ok b -> Ok b
          | Error e -> Error (e.Pbse.Serve.err_code ^ ": " ^ e.Pbse.Serve.err_message)
        in
        let stop = Probe.now () in
        Mutex.protect m (fun () -> replies := { key = k; cold; start; stop; body } :: !replies);
        client ()
    in
    let other = Thread.create client () in
    client ();
    Thread.join other
  in
  drain ~cold:true cold_order;
  drain ~cold:false warm_order;
  List.rev !replies

let serve_setup reps =
  measure_setup ~reps ~per:10 ~targets:serve_targets (fun () ->
      let srv = boot ~store_file:(fresh_store ()) in
      ignore (shutdown srv))

(* The local reference for every key, reduced to what the checks need
   (the campaigns themselves are dropped before anything is timed):
   report bodies, summed coverage, distinct replayed bugs per target and
   the engine counters of all 24 campaigns. *)
type serve_refs = {
  bodies : string array;
  ref_coverage : int;
  ref_bugs : int;
  counters : (string * float * string) list;
}

let serve_references oracle =
  let locals = List.map serve_local serve_keys in
  let bugs_of t =
    List.concat
      (List.map2
         (fun (t', _, _) ((r : Driver.pool_report), _) ->
           if t' = t then List.map fst r.Driver.merged_bugs else [])
         serve_keys locals)
  in
  {
    bodies = Array.of_list (List.map snd locals);
    ref_coverage = List.fold_left (fun acc (r, _) -> acc + r.Driver.merged_coverage) 0 locals;
    ref_bugs =
      List.fold_left
        (fun acc t ->
          acc + Oracle.confirmed_bugs oracle ~target:t (Registry.program (target t)) (bugs_of t))
        0 serve_targets;
    counters = engine_counters (List.concat_map (fun (r, _) -> List.map snd r.Driver.runs) locals);
  }

let serve_check oracle refs replies =
  List.iter
    (fun rp ->
      let t, d, s = List.nth serve_keys rp.key in
      let label = Printf.sprintf "serve-mix: %s %s/%d/%s" (if rp.cold then "cold" else "warm") t d s in
      match rp.body with
      | Ok b -> Oracle.same oracle (label ^ " body equals the local pool report") refs.bodies.(rp.key) b
      | Error e -> Oracle.check oracle (label ^ ": " ^ e) false)
    replies

(* one iteration: boot (fresh store), run the mix, shut down; the mix
   alone is timed, allocation spans the server's whole life *)
let serve_unit ~rng_seed =
  let g0 = Probe.gc () in
  let srv = boot ~store_file:(fresh_store ()) in
  let (replies, cost) = Probe.measure (fun () -> serve_mix ~rng_seed srv) in
  let stats = shutdown srv in
  let alloc = Probe.allocated (Probe.gc ()) -. Probe.allocated g0 in
  (replies, { cost with Probe.alloc }, stats)

let serve_stats_check oracle (stats : Pbse.Serve.stats) replies =
  let warm = List.length (List.filter (fun r -> not r.cold) replies) in
  Oracle.check oracle "serve-mix: no admission rejections" (stats.Pbse.Serve.sv_rejections = 0);
  Oracle.check oracle "serve-mix: every warm repeat hit the store"
    (stats.Pbse.Serve.sv_store_hits >= warm)

let serve_timed oracle ~seed ~seconds =
  let setup0, _ = serve_setup first_setup_reps in
  let runs, () =
    repeat (unit_count ~seconds ~nominal:serve_nominal ~least:2) (fun () ->
        let setup = fst (serve_setup between_setup_reps) in
        let replies, cost, stats = serve_unit ~rng_seed:seed in
        serve_stats_check oracle stats replies;
        ((replies, cost, setup), ()))
  in
  let runs, speeds = List.split runs in
  (* the local references run after the timed units, so they cannot
     shape their heap *)
  let refs = serve_references oracle in
  List.iter (fun (replies, _, _) -> serve_check oracle refs replies) runs;
  let lat cold =
    List.concat_map
      (fun (replies, _, _) ->
        List.filter_map (fun r -> if r.cold = cold then Some (ms (r.stop -. r.start)) else None) replies)
      runs
  in
  {
    setup = scaled_setup setup0 (List.map (fun (_, _, su) -> su) runs) speeds;
    costs = List.map (fun (_, c, _) -> c) runs;
    speed = speeds;
    coverage = refs.ref_coverage;
    bugs = refs.ref_bugs;
    cold_ms = lat true;
    warm_ms = lat false;
  }

(* union length of [start, stop] intervals *)
let union_length intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  let total, cur =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) -> if s <= ce then (total, Some (cs, Float.max ce e)) else (total +. (ce -. cs), Some (s, e)))
      (0.0, None) sorted
  in
  match cur with Some (cs, ce) -> total +. (ce -. cs) | None -> total

let serve_traced oracle ~seed ~seconds =
  let compile_s = Probe.median (snd (serve_setup first_setup_reps)) in
  let refs = serve_references oracle in
  (* The request spans are the client's own timestamps, which the timed
     run takes too: a traced unit is an untraced one, so there is no
     tracing overhead to measure and one unit serves both purposes. *)
  let _, (cost, replies, stats) =
    repeat (unit_count ~seconds ~nominal:serve_nominal ~least:1) (fun () ->
        let replies, cost, stats = serve_unit ~rng_seed:seed in
        serve_check oracle refs replies;
        serve_stats_check oracle stats replies;
        ((), (cost, replies, stats)))
  in
  let span_of cold = List.filter_map (fun r -> if r.cold = cold then Some (r.start, r.stop) else None) replies in
  let cold_u = union_length (span_of true) in
  let all_u = union_length (span_of true @ span_of false) in
  (* protocol layer, standalone over the mix's own request lines *)
  let lines =
    List.mapi (fun i k -> Protocol.render_request (request_of ~id:(string_of_int i) k)) serve_keys
  in
  let per_call_us f =
    let reps = 200 in
    let t0 = Probe.now () in
    for _ = 1 to reps do
      List.iter f serve_keys
    done;
    (Probe.now () -. t0) *. 1e6 /. float_of_int (reps * List.length serve_keys)
  in
  let render_us = per_call_us (fun k -> ignore (Protocol.render_request (request_of ~id:"0" k))) in
  let parse_us =
    let arr = Array.of_list lines in
    let i = ref 0 in
    per_call_us (fun _ ->
        ignore (Protocol.parse_request arr.(!i mod Array.length arr));
        incr i)
  in
  let bytes =
    List.fold_left (fun acc r -> match r.body with Ok b -> acc + String.length b | Error _ -> acc) 0 replies
  in
  let layers =
    [
      ("lang.compile_ms", ms compile_s, "ms");
      ("serve.store_hits", float_of_int stats.Pbse.Serve.sv_store_hits, "count");
      ("serve.rejections", float_of_int stats.Pbse.Serve.sv_rejections, "count");
      ("serve.response_bytes", float_of_int bytes, "bytes");
      ("protocol.render_us", render_us, "us");
      ("protocol.parse_us", parse_us, "us");
      ("campaign.parallel_eff", fdiv cost.Probe.cpu_s (2.0 *. cost.Probe.wall), "ratio");
    ]
    @ refs.counters
    @ gc_counters cost
  in
  {
    layers;
    self_s = [ ("serve.cold", cold_u); ("serve.warm", all_u -. cold_u) ];
    traced_wall = cost.Probe.wall;
    untraced_wall = cost.Probe.wall;
  }

(* --- the workload table ----------------------------------------------------------- *)

let workloads =
  [
    ( "deep-dwarfdump",
      "one deep single-seed run (Session.run, dwarfdump default seed, 10 paper-hours): \
       executor and solver dominate; stresses exec/smt/pathcond/sched, bypasses \
       campaign/snapshot/serve" );
    ( "triage-all",
      "open+finish+report on every seed of every target: concolic tracing and phase \
       division do the work and the solver answers no queries; bypasses \
       smt/pathcond/campaign/serve" );
    ( "pool-dwarfdump-j2",
      "a 2-domain coverage-greedy campaign over dwarfdump's benign seeds, checkpointed every \
       round: stresses campaign rounds, merge barriers, steals and snapshot writes" );
    ( "serve-mix",
      "two closed-loop socket clients over 24 distinct pool campaigns, each sent cold then \
       repeated warm: stresses protocol/transport/admission and the session store" );
  ]

(* --- per-layer metric set ----------------------------------------------------------

   Every traced run prints every name below; a layer a workload bypasses
   reads 0. *)

let share_layers =
  [ "concolic"; "phase"; "exec"; "smt"; "report"; "campaign"; "snapshot"; "serve.cold"; "serve.warm" ]

let layer_names =
  [
    ("lang.compile_ms", "ms"); ("concolic.ms", "ms"); ("concolic.alloc_mwords", "Mwords");
    ("concolic.ns_per_vunit", "ns"); ("phase.divide_ms", "ms"); ("phase.alloc_mwords", "Mwords");
    ("phase.bbvs", "count"); ("session.open_ms", "ms"); ("session.seed_ms", "ms");
    ("session.step_ms", "ms"); ("session.report_ms", "ms"); ("exec.instructions", "count");
    ("exec.forks", "count"); ("exec.cow_copies", "count"); ("exec.ns_per_instr", "ns");
    ("exec.share", "ratio"); ("smt.queries", "count"); ("smt.work", "count");
    ("smt.search_nodes", "count"); ("smt.ns_per_work", "ns"); ("smt.ns_per_query", "ns");
    ("smt.share", "ratio"); ("smt.cache_hit_ratio", "ratio"); ("smt.prefix_hit_ratio", "ratio");
    ("smt.unknown_ratio", "ratio"); ("pathcond.subsume_hit_ratio", "ratio");
    ("pathcond.subsumed_states", "count"); ("pathcond.loop_summaries", "count");
    ("pathcond.summary_fallbacks", "count"); ("sched.turns", "count"); ("sched.rotations", "count");
    ("sched.new_cover_ratio", "ratio"); ("campaign.round_ms_p50", "ms");
    ("campaign.round_ms_max", "ms"); ("campaign.rounds", "count"); ("campaign.steals", "count");
    ("campaign.parallel_eff", "ratio"); ("snapshot.write_ms", "ms");
    ("snapshot.writes", "count"); ("snapshot.bytes", "bytes"); ("snapshot.load_ms", "ms");
    ("serve.store_hits", "count"); ("serve.rejections", "count"); ("serve.response_bytes", "bytes");
    ("protocol.render_us", "us"); ("protocol.parse_us", "us"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("gc.promoted_mwords", "Mwords"); ("calib.r2", "ratio");
    ("calib.samples", "count"); ("trace.overhead_s", "s"); ("trace.covered_share", "ratio");
  ]
  @ List.map (fun l -> ("share." ^ l, "ratio")) (share_layers @ [ "other" ])

let e2e_names =
  [
    ("wall_s", "s"); ("cpu_s", "s"); ("setup_s", "s"); ("alloc_gwords", "Gwords");
    ("peak_heap_mb", "MB"); ("coverage_blocks", "count"); ("bugs_found", "count");
  ]

let e2e_metrics (t : timed) =
  (* Times are scaled by the host's speed around their unit, and the
     median over units is taken. Wall time also loses the CPU time the
     host stole from the process's CPUs while the unit ran, summed over
     those CPUs: OCaml 5's minor collections stop every domain, so a stall
     on one CPU stalls the others too. The first unit also pays one-time
     lazy initialisation; later units of a deterministic workload allocate
     identically, so allocation is the least over units. *)
  let per_unit f = List.map2 f t.costs t.speed in
  let least f = List.fold_left Float.min infinity (per_unit f) in
  [
    ("wall_s", Probe.median (per_unit (fun c speed -> (c.Probe.wall -. c.Probe.stolen) *. speed)));
    ("cpu_s", Probe.median (per_unit (fun c speed -> c.Probe.cpu_s *. speed)));
    ("setup_s", Probe.median t.setup);
    ("alloc_gwords", least (fun c _ -> c.Probe.alloc) /. 1e9);
    (* the heap high-water mark when the first unit ends, before anything
       else has run in the process *)
    ( "peak_heap_mb",
      float_of_int ((List.hd t.costs).Probe.top_heap * (Sys.word_size / 8)) /. 1048576.0 );
    ("coverage_blocks", float_of_int t.coverage);
    ("bugs_found", float_of_int t.bugs);
  ]

let layer_metrics (t : traced) =
  let covered = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 t.self_s in
  let shares =
    List.map
      (fun l -> ("share." ^ l, fdiv (Option.value (List.assoc_opt l t.self_s) ~default:0.0) t.traced_wall))
      share_layers
    @ [ ("share.other", fdiv (t.traced_wall -. covered) t.traced_wall) ]
  in
  let given =
    List.map (fun (n, v, _) -> (n, v)) t.layers
    @ shares
    @ [
        ("trace.overhead_s", t.traced_wall -. t.untraced_wall);
        ("trace.covered_share", fdiv covered t.traced_wall);
      ]
  in
  List.map (fun (n, _) -> (n, Option.value (List.assoc_opt n given) ~default:0.0)) layer_names

(* --- output ------------------------------------------------------------------------ *)

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics units =
  let body =
    String.concat ", "
      (List.map
         (fun (n, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) (List.assoc n units))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let usage () =
  prerr_endline
    "usage: pbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: deep-dwarfdump triage-all pool-dwarfdump-j2 serve-mix";
  exit 2

let () =
  (* the reference kernel's child process, see [fresh_kernel_walls] *)
  (match Array.to_list Sys.argv with
   | [ _; "--kernel"; n ] ->
     (* the first run grows the fresh heap; it is not printed *)
     List.iter (Printf.printf "%.9f\n") (List.tl (Probe.kernel_walls (int_of_string n + 1)));
     exit 0
   | _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let why = match List.assoc_opt !workload workloads with Some w -> w | None -> usage () in
  let g = Gc.get () in
  Printf.printf "# workload %s (seed %d, %gs, trace %d): %s\n" !workload !seed !seconds !trace why;
  Printf.printf
    "# gc at start: minor_heap_size=%d words, space_overhead=%d, major_heap_increment=%d, \
     allocation_policy=%d, OCAMLRUNPARAM=%s\n%!"
    g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.major_heap_increment g.Gc.allocation_policy
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"(unset)");
  let oracle = Oracle.create () in
  let seconds = !seconds and seed = !seed in
  let outcome =
    try
      Fun.protect ~finally:remove_scratch (fun () ->
          if !trace = 0 then
            let t =
              match !workload with
              | "deep-dwarfdump" -> deep_timed oracle ~seconds
              | "triage-all" -> triage_timed oracle ~seconds
              | "pool-dwarfdump-j2" -> pool_timed oracle ~seconds
              | _ -> serve_timed oracle ~seed ~seconds
            in
            Printf.printf "# units of work timed: %d, wall s (of it stolen by the host; host speed): %s\n"
              (List.length t.costs)
              (String.concat " "
                 (List.map2
                    (fun c speed -> Printf.sprintf "%.3f (%.3f; %.3f)" c.Probe.wall c.Probe.stolen speed)
                    t.costs t.speed));
            let dist name xs =
              Printf.printf "# %s: n=%d p10=%.4g p50=%.4g p90=%.4g max=%.4g ms\n" name (List.length xs)
                (Probe.quantile 0.1 xs) (Probe.median xs) (Probe.quantile 0.9 xs) (Probe.maximum xs)
            in
            Printf.printf "# set-up batches, mean ms per set-up: %s\n"
              (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" (ms s)) t.setup));
            dist "cold requests" t.cold_ms;
            dist "warm requests" t.warm_ms;
            (* request latencies swing more from run to run than any bound
               allows, so they are printed but not part of the result *)
            Ok
              ( e2e_metrics t,
                e2e_names,
                [
                  ("req_cold_p50_ms", Probe.median t.cold_ms, "ms");
                  ("req_warm_p50_ms", Probe.median t.warm_ms, "ms");
                ] )
          else
            let t =
              match !workload with
              | "deep-dwarfdump" -> deep_traced oracle ~seconds
              | "triage-all" -> triage_traced oracle ~seconds
              | "pool-dwarfdump-j2" -> pool_traced oracle ~seconds
              | _ -> serve_traced oracle ~seed ~seconds
            in
            Ok (layer_metrics t, layer_names, []))
    with e -> Error (Printexc.to_string e)
  in
  match outcome with
  | Error e ->
    Printf.eprintf "perfbench: %s failed: %s\n%!" !workload e;
    exit 1
  | Ok (metrics, units, printed) ->
    List.iter
      (fun (n, v, u) -> Printf.printf "  %-28s %16.6g %s\n" n v u)
      (List.map (fun (n, v) -> (n, v, List.assoc n units)) metrics @ printed);
    Printf.printf "  %-28s %16.6g ratio (failed %d / attempted %d)\n" "fail_frac"
      (ratio oracle.Oracle.failed oracle.Oracle.attempted)
      oracle.Oracle.failed oracle.Oracle.attempted;
    print_result ~correct:(oracle.Oracle.failed = 0) ~attempted:(max 1 oracle.Oracle.attempted)
      ~failed:oracle.Oracle.failed metrics units
