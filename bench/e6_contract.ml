(* Experiment E6 — Definition 2 as a testable contract.

   Hardware side: on programs that obey DRF0, every machine claiming weak
   ordering must appear sequentially consistent.  Software side: on racy
   programs all bets are off, and the weak machines do leave the SC
   outcome set — demonstrating the constraint on software is load-bearing.

   Racy programs are loop-free, so their SC outcome sets are enumerated
   exhaustively; observed outcomes are compared against them
   (Definition-2 falsification).  Lock-disciplined programs contain spin
   loops, so they are checked with the Lemma-1 oracle (Appendix A) on
   every trace. *)

module M = Wo_machines.Machine

let racy_programs = 30
let racy_runs_each = 20
let drf_programs = 15
let drf_runs_each = 10

let racy_row (machine : M.t) =
  let programs_violating = ref 0 in
  for pseed = 1 to racy_programs do
    let program = Wo_synth.Synth.racy ~seed:pseed () in
    (* The SC outcome set quantifies over all interleavings: the stateful
       enumerator's DAG search collects it. *)
    let sc, _stats = Wo_prog.Enumerate.outcomes_stateful ~domains:1 program in
    let observed =
      List.init racy_runs_each (fun i ->
          (M.run machine ~seed:(i + 1) program).M.outcome)
    in
    let verdict =
      Wo_core.Weak_ordering.appears_sc ~compare:Wo_prog.Outcome.compare
        ~sc_outcomes:sc ~observed
    in
    if not (Wo_core.Weak_ordering.holds verdict) then incr programs_violating
  done;
  [
    machine.M.name;
    Exp_common.pct !programs_violating racy_programs;
    Exp_common.yes_no machine.M.sequentially_consistent;
  ]

let drf_row (machine : M.t) =
  let lemma1_failures = ref 0 in
  let runs_total = ref 0 in
  for pseed = 1 to drf_programs do
    let program = Wo_synth.Synth.lock_disciplined ~seed:pseed () in
    for seed = 1 to drf_runs_each do
      incr runs_total;
      let r = M.run machine ~seed program in
      match
        M.check_lemma1 ~init:(Wo_prog.Program.initial_value program) r
      with
      | Ok () -> ()
      | Error _ -> incr lemma1_failures
    done
  done;
  [
    machine.M.name;
    Exp_common.pct !lemma1_failures !runs_total;
    Exp_common.yes_no machine.M.weakly_ordered_drf0;
  ]

let run () =
  Wo_report.Table.heading "E6 / Definition 2 — the contract, falsified and held";
  Wo_report.Table.subheading
    (Printf.sprintf
       "software side: %d random racy programs x %d runs; outcomes vs \
        enumerated SC set"
       racy_programs racy_runs_each);
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; R; L ]
    ~headers:[ "machine"; "programs with non-SC outcomes"; "claims SC" ]
    (List.map racy_row Wo_machines.Presets.all);
  Wo_report.Table.subheading
    (Printf.sprintf
       "hardware side: %d random lock-disciplined (DRF0) programs x %d \
        runs; Lemma-1 oracle per trace"
       drf_programs drf_runs_each);
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; R; L ]
    ~headers:[ "machine"; "Lemma-1 failures"; "claims WO w.r.t. DRF0" ]
    (List.map drf_row Wo_machines.Presets.weakly_ordered);
  print_endline
    "Expected: the SC machines never leave the SC set; the weak machines\n\
     do on racy programs; and no machine claiming weak ordering w.r.t.\n\
     DRF0 ever fails the Lemma-1 oracle on a DRF0 program."
