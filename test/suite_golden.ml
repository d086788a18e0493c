(* Report byte-identity against checked-in goldens: each target's
   "small" seed at one paper-hour, exactly as `pbse run TARGET --hours 1
   --report FILE` writes it. Performance work on the engine must leave
   every pbse-report/1 byte alone; regenerate a golden only for a change
   meant to alter search behaviour, and say so in its commit. *)

module Driver = Pbse.Driver
module Registry = Pbse_targets.Registry
module Telemetry = Pbse_telemetry.Telemetry
module Report = Pbse_telemetry.Report

let deadline = 120_000 (* one paper-hour *)

let golden_path name = Filename.concat "golden" (name ^ ".json")

(* The CLI's recipe, except that the run gets a private enabled
   registry: spans other suites registered in the process-global one
   must not leak into the report. *)
let report_json t =
  let config = Driver.default_config in
  let runtime =
    Pbse.Runtime.create
      ~registry:(Telemetry.Registry.create ~enabled:true ())
      ~rng_seed:config.Driver.rng_seed ~inject:config.Driver.robust.Driver.inject
      ~max_strikes:config.Driver.robust.Driver.max_strikes
      ~prefix_cap:config.Driver.solver.Driver.prefix_cap ()
  in
  let report =
    Driver.run ~config ~runtime (Registry.program t) ~seed:(Registry.seed t "small")
      ~deadline
  in
  let meta =
    [
      ("target", t.Registry.name);
      ("seed", "small");
      ("deadline", string_of_int deadline);
    ]
  in
  Report.to_json (Driver.run_report ~meta report)

let test_reports_match_goldens () =
  List.iter
    (fun t ->
      let name = t.Registry.name in
      let expected = In_channel.with_open_bin (golden_path name) In_channel.input_all in
      Alcotest.(check string) (name ^ " report") expected (report_json t))
    Registry.all

let suite =
  [
    Alcotest.test_case "hour-1 reports byte-identical to goldens" `Slow
      test_reports_match_goldens;
  ]
