(* Tests for the litmus library and harness: the declared DRF0 flags are
   verified mechanically, loop flags are accurate, and the runner's
   verdicts make sense. *)

module L = Wo_litmus.Litmus
module R = Wo_litmus.Runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_drf0_flags_verified_by_enumeration () =
  List.iter
    (fun (t : L.t) ->
      if not t.L.loops then
        let verdict = Wo_oracle.Enum_ref.check_drf0 t.L.program = Ok () in
        check (t.L.name ^ " drf0 flag") t.L.drf0 verdict)
    L.all

let test_drf0_flags_verified_by_sampling () =
  (* Loop-bearing tests cannot be enumerated; check sampled schedules
     instead, as `wo check' does. *)
  List.iter
    (fun (t : L.t) ->
      if t.L.loops then
        check (t.L.name ^ " sampled race-free") t.L.drf0
          (Test_race.sampled_races ~schedules:15 t.L.program = []))
    L.all

let test_loop_flags_accurate () =
  List.iter
    (fun (t : L.t) ->
      check (t.L.name ^ " loops flag") t.L.loops
        (Wo_prog.Program.has_loops t.L.program))
    L.all

let test_names_unique_and_findable () =
  let names = List.map (fun (t : L.t) -> t.L.name) L.all in
  check "unique" true (List.length (List.sort_uniq compare names) = List.length names);
  List.iter (fun n -> check ("find " ^ n) true (L.find n <> None)) names;
  check "unknown" true (L.find "no-such-test" = None)

let test_interesting_predicates_match_sc_expectations () =
  (* Named "interesting" outcomes of loop-free racy tests must be outside
     the SC set (that is what makes them interesting). *)
  List.iter
    (fun (t : L.t) ->
      if (not t.L.loops) && not t.L.drf0 then
        let sc = Wo_oracle.Enum_ref.outcomes t.L.program in
        List.iter
          (fun (name, pred) ->
            (* coherence's lost-own-write is SC-impossible too, like the
               others; assert none of the named outcomes are enumerated *)
            check
              (t.L.name ^ "." ^ name ^ " outside SC set")
              false
              (List.exists pred sc))
          t.L.interesting)
    [ L.figure1; L.message_passing; L.iriw; L.coherence ]

let test_runner_on_sc_machine () =
  let rep = R.run ~runs:30 Wo_machines.Presets.sc_dir L.figure1 in
  check "appears SC" true (R.appears_sc rep);
  check "sc outcomes enumerated" true (rep.R.sc_outcomes <> []);
  check_int "all runs counted" 30
    (List.fold_left (fun acc (_, n) -> acc + n) 0 rep.R.histogram);
  check "cycles accumulated" true (rep.R.total_cycles > 0)

let test_runner_catches_violations () =
  let rep = R.run ~runs:30 Wo_machines.Presets.bus_nocache_wb L.figure1 in
  check "violations found" false (R.appears_sc rep);
  check "violation multiplicity recorded" true
    (List.exists (fun (_, n) -> n > 0) rep.R.violations)

let test_runner_loops_use_lemma1 () =
  let rep = R.run ~runs:10 Wo_machines.Presets.wo_new L.message_passing_sync in
  check "no SC set for loop tests" true (rep.R.sc_outcomes = []);
  check "lemma1 clean" true (rep.R.lemma1_failures = 0);
  check "appears SC" true (R.appears_sc rep)

let test_figure3_parameters () =
  let t = L.figure3_scenario ~work_before_unset:5 ~work_after_unset:7 ~consumer_delay:3 () in
  check "still DRF0 by sampling" true (Test_race.sampled_races t.L.program = []);
  check "has the stale-x predicate" true
    (List.mem_assoc "stale-x" t.L.interesting)

let test_sync_chain_scenario_delay () =
  let t = L.sync_chain_scenario ~observer_delay:10 () in
  check "still loop-free" false t.L.loops;
  check "still DRF0" true (Wo_oracle.Enum_ref.check_drf0 t.L.program = Ok ())

let test_random_racy_enumerable () =
  for seed = 1 to 10 do
    let p = Wo_synth.Synth.racy ~seed () in
    check "loop free" false (Wo_prog.Program.has_loops p);
    check "has outcomes" true (Wo_oracle.Enum_ref.outcomes p <> [])
  done

let test_random_lock_disciplined_structure () =
  for seed = 1 to 5 do
    let p = Wo_synth.Synth.lock_disciplined ~seed () in
    check "has loops (spin locks)" true (Wo_prog.Program.has_loops p);
    check "observable restricted" true
      (p.Wo_prog.Program.observable <> None)
  done

let tests =
  [
    Alcotest.test_case "drf0 flags by enumeration" `Quick
      test_drf0_flags_verified_by_enumeration;
    Alcotest.test_case "drf0 flags by sampling" `Quick
      test_drf0_flags_verified_by_sampling;
    Alcotest.test_case "loop flags" `Quick test_loop_flags_accurate;
    Alcotest.test_case "names" `Quick test_names_unique_and_findable;
    Alcotest.test_case "interesting outcomes outside SC" `Quick
      test_interesting_predicates_match_sc_expectations;
    Alcotest.test_case "runner on SC machine" `Quick test_runner_on_sc_machine;
    Alcotest.test_case "runner catches violations" `Quick
      test_runner_catches_violations;
    Alcotest.test_case "runner with loops" `Quick test_runner_loops_use_lemma1;
    Alcotest.test_case "figure3 parameters" `Quick test_figure3_parameters;
    Alcotest.test_case "sync-chain scenario" `Quick test_sync_chain_scenario_delay;
    Alcotest.test_case "random racy programs" `Quick test_random_racy_enumerable;
    Alcotest.test_case "random lock programs" `Quick
      test_random_lock_disciplined_structure;
  ]
