(* The full test suite: one section per library (see DESIGN.md).
   `dune runtest` runs everything, including the `Slow-marked machine
   matrix tests. *)

let () =
  Alcotest.run "weak-ordering"
    [
      ("relation", Test_relation.tests);
      ("event", Test_event.tests);
      ("execution", Test_execution.tests);
      ("happens-before", Test_happens_before.tests);
      ("drf0", Test_drf0.tests);
      ("drf0-inc", Test_drf0_inc.tests);
      ("sc", Test_sc.tests);
      ("lemma1", Test_lemma1.tests);
      ("prog", Test_prog.tests);
      ("enumerate", Test_enumerate.tests);
      ("statespace", Test_statespace.tests);
      ("compiled", Test_compiled.tests);
      ("sim", Test_sim.tests);
      ("interconnect", Test_interconnect.tests);
      ("cache", Test_cache.tests);
      ("race", Test_race.tests);
      ("machines", Test_machines.tests);
      ("machpath", Test_machpath.tests);
      ("spec", Test_spec.tests);
      ("models", Test_models.tests);
      ("litmus", Test_litmus.tests);
      ("workload", Test_workload.tests);
      ("delay-set", Test_delay_set.tests);
      ("parse", Test_parse.tests);
      ("cross-check", Test_cross_check.tests);
      ("report", Test_report.tests);
      ("obs", Test_obs.tests);
      ("synth", Test_synth.tests);
      ("campaign", Test_campaign.tests);
    ]
