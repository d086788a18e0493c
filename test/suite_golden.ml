(* Report byte-identity against checked-in goldens: each target's
   "small" seed at one paper-hour, exactly as `pbse run TARGET --hours 1
   --report FILE` writes it. Performance work on the engine must leave
   every pbse-report/1 byte alone; regenerate a golden only for a change
   meant to alter search behaviour, and say so in its commit. *)

module Session = Pbse_session.Session
module Registry = Pbse_targets.Registry
module Telemetry = Pbse_telemetry.Telemetry
module Report = Pbse_telemetry.Report

let deadline = 120_000 (* one paper-hour *)

let golden_path name = Filename.concat "golden" (name ^ ".json")

(* The CLI's recipe, except that the run gets a private enabled
   registry: spans other suites registered in the process-global one
   must not leak into the report. *)
let report_json t =
  let config = Session.default_config in
  let runtime =
    Pbse_session.Runtime.create
      ~registry:(Telemetry.Registry.create ~enabled:true ())
      ~rng_seed:config.Session.rng_seed ~inject:config.Session.robust.Session.inject
      ~max_strikes:config.Session.robust.Session.max_strikes
      ~prefix_cap:config.Session.solver.Session.prefix_cap ()
  in
  let report =
    Session.run ~config ~runtime (Registry.program t) ~seed:(Registry.seed t "small")
      ~deadline
  in
  let meta =
    [
      ("target", t.Registry.name);
      ("seed", "small");
      ("deadline", string_of_int deadline);
    ]
  in
  Report.to_json (Session.run_report ~meta report)

let test_reports_match_goldens () =
  List.iter
    (fun t ->
      let name = t.Registry.name in
      let expected = In_channel.with_open_bin (golden_path name) In_channel.input_all in
      Alcotest.(check string) (name ^ " report") expected (report_json t))
    Registry.all

(* The standalone searchers the golden reports above never reach (the
   pbSE path runs only [default]): `pbse klee dwarfdump --hours 1
   --searcher S` output, checked in as golden/klee-dwarfdump-S.txt. *)
let test_klee_outputs_match_goldens () =
  let t = Option.get (Registry.by_name "dwarfdump") in
  List.iter
    (fun searcher ->
      let r =
        Pbse.Klee.run (Registry.program t) ~searcher ~input:(Bytes.make 100 '\000')
          ~checkpoints:[ deadline ]
      in
      let expected =
        In_channel.with_open_bin
          (Filename.concat "golden" ("klee-dwarfdump-" ^ searcher ^ ".txt"))
          In_channel.input_all
      in
      Alcotest.(check string) (searcher ^ " output") expected
        (Pbse.Klee.summary r ~sym_size:100 ~hours:1.0))
    [ "covnew"; "md2u"; "random-path" ]

let suite =
  [
    Alcotest.test_case "hour-1 reports byte-identical to goldens" `Slow
      test_reports_match_goldens;
    Alcotest.test_case "hour-1 klee searcher outputs match goldens" `Slow
      test_klee_outputs_match_goldens;
  ]
