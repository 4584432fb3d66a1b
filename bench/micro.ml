(* Bechamel micro-benchmarks — one Test.make per experiment family, so the
   harness doubles as a performance-regression suite for the library
   itself: interleaving enumeration (E1/E6), the DRF0 checker (E2), full
   machine simulations (E3/E4/E5/E7), the vector-clock race detector, and
   the Lemma-1 oracle (E6). *)

open Bechamel
open Toolkit

module M = Wo_machines.Machine

let figure1 = Wo_litmus.Litmus.figure1

let test_enumerate =
  Test.make ~name:"e1.enumerate-figure1"
    (Staged.stage @@ fun () ->
     Wo_prog.Enumerate.outcomes_stateful ~domains:1
       figure1.Wo_litmus.Litmus.program)

let fig2b = Wo_litmus.Figure2.execution_b

let test_drf0 =
  Test.make ~name:"e2.drf0-check-figure2b"
    (Staged.stage @@ fun () -> Wo_core.Drf0.races fig2b)

let fig3 = Wo_litmus.Litmus.figure3_scenario ()

let test_fig3_sim =
  Test.make ~name:"e3.simulate-figure3-wo-new"
    (Staged.stage @@ fun () ->
     M.run Wo_machines.Presets.wo_new ~seed:1 fig3.Wo_litmus.Litmus.program)

let barrier = Wo_workload.Workload.spin_barrier ~procs:4 ~rounds:2 ~work:4 ()

let test_barrier_sim =
  Test.make ~name:"e4.simulate-barrier-wo-new-drf1"
    (Staged.stage @@ fun () ->
     M.run Wo_machines.Presets.wo_new_drf1 ~seed:1
       barrier.Wo_workload.Workload.program)

let cs = Wo_workload.Workload.critical_section ~procs:4 ~sections:3 ~work:4 ()

let test_cs_sim =
  Test.make ~name:"e5.simulate-critical-section-sc-dir"
    (Staged.stage @@ fun () ->
     M.run Wo_machines.Presets.sc_dir ~seed:1 cs.Wo_workload.Workload.program)

let drf_program = Wo_synth.Synth.lock_disciplined ~seed:3 ()
let drf_result = M.run Wo_machines.Presets.wo_new ~seed:3 drf_program

let test_lemma1 =
  Test.make ~name:"e6.lemma1-oracle"
    (Staged.stage @@ fun () ->
     M.check_lemma1
       ~init:(Wo_prog.Program.initial_value drf_program)
       drf_result)

let ideal_exec =
  Wo_prog.Cinterp.execution
    (Wo_prog.Cinterp.run_random ~seed:5
       (Option.get (Wo_prog.Prog_compile.compile drf_program)))

let test_detector =
  Test.make ~name:"e6.vector-clock-detector"
    (Staged.stage @@ fun () -> Wo_core.Drf0_inc.check_execution ideal_exec)

let test_ablation_sim =
  Test.make ~name:"e7.simulate-sync-chain-wo-new"
    (Staged.stage @@ fun () ->
     M.run Wo_machines.Presets.wo_new ~seed:1
       Wo_litmus.Litmus.sync_chain.Wo_litmus.Litmus.program)

let tests =
  Test.make_grouped ~name:"wo" ~fmt:"%s.%s"
    [
      test_enumerate;
      test_drf0;
      test_fig3_sim;
      test_barrier_sim;
      test_cs_sim;
      test_lemma1;
      test_detector;
      test_ablation_sim;
    ]

let run () =
  Wo_report.Table.heading "Micro-benchmarks (Bechamel; ns per run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> Printf.sprintf "%.0f" e
          | _ -> "n/a"
        in
        [ name; ns ] :: acc)
      results []
    |> List.sort compare
  in
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; R ]
    ~headers:[ "benchmark"; "ns/run" ] rows
