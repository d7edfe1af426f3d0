(* Test runner: aggregates the per-module suites.

   "sandbox" MUST stay first: its tests fork, and OCaml 5.1 refuses
   Unix.fork permanently once any domain has ever been spawned in the
   process — which any later suite touching a pool does. *)

let () =
  Alcotest.run "octopocs"
    [
      ("sandbox", Test_sandbox.suite);
      ("util", Test_util.suite);
      ("vm", Test_vm.suite);
      ("solver", Test_solver.suite);
      ("cfg", Test_cfg.suite);
      ("clone", Test_clone.suite);
      ("detect", Test_detect.suite);
      ("taint", Test_taint.suite);
      ("symex", Test_symex.suite);
      ("formats", Test_formats.suite);
      ("targets", Test_targets.suite);
      ("pipeline", Test_pipeline.suite);
      ("fuzz", Test_fuzz.suite);
      ("extensions", Test_extensions.suite);
      ("robust", Test_robust.suite);
      ("journal", Test_journal.suite);
      ("telemetry", Test_telemetry.suite);
      ("corpus", Test_corpus.suite);
      ("trace", Test_trace.suite);
      ("prop", Test_prop.suite);
      ("wire", Test_wire.suite);
      ("stress", Test_stress.suite);
      ("golden", Test_golden.suite);
    ]
