let () =
  Alcotest.run "pbse"
    [
      ("util", Suite_util.suite);
      ("ir", Suite_ir.suite);
      ("smt", Suite_smt.suite);
      ("lang", Suite_lang.suite);
      ("mem", Suite_mem.suite);
      ("searcher", Suite_searcher.suite);
      ("exec", Suite_exec.suite);
      ("concolic", Suite_concolic.suite);
      ("pathcond", Suite_pathcond.suite);
      ("phase", Suite_phase.suite);
      ("sched", Suite_sched.suite);
      ("telemetry", Suite_telemetry.suite);
      ("core", Suite_core.suite);
      ("session", Suite_session.suite);
      ("serve", Suite_serve.suite);
      ("campaign", Suite_campaign.suite);
      ("parallel", Suite_parallel.suite);
      ("robust", Suite_robust.suite);
      ("targets", Suite_targets.suite);
      ("golden", Suite_golden.suite);
      ("snapshot", Suite_snapshot.suite);
    ]
