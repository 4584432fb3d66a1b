let run ~seed art =
  Machine.note_run ();
  let state = Wo_prog.Cinterp.run_random ~seed art in
  let exn = Wo_prog.Cinterp.execution state in
  let trace = Wo_sim.Trace.create () in
  List.iteri
    (fun i ev ->
      Wo_sim.Trace.add trace
        { Wo_sim.Trace.event = ev; issued = i; committed = i; performed = i })
    (Wo_core.Execution.events exn);
  let steps = Wo_sim.Trace.size trace in
  {
    Machine.outcome = Wo_prog.Cinterp.outcome state;
    trace;
    cycles = steps;
    proc_finish = Array.make art.Wo_prog.Prog_compile.nprocs steps;
    counters = Wo_sim.Stats.create ();
    stalls = Wo_obs.Stall.create ();
    taps = Wo_obs.Tap.create ();
  }

(* The interpreter holds no reusable machinery; a session only memoises
   the bound program's compiled artifact, and still answers the session
   interface so every machine can be batch-driven uniformly. *)
let new_session () =
  let first = ref true in
  let bound = ref None in
  {
    Machine.session_machine = "ideal";
    session_run =
      (fun ~seed ?compiled program ->
        if !first then first := false else Machine.note_session_reuse ();
        let art =
          match (compiled, !bound) with
          | Some art, _ -> art
          | None, Some (p, art) when p == program -> art
          | None, _ -> Machine.compile ~name:"ideal" program
        in
        bound := Some (program, art);
        run ~seed art);
  }

let machine =
  {
    Machine.name = "ideal";
    description =
      "The idealized architecture of Section 4: all memory accesses execute \
       atomically and in program order, under a seeded random scheduler.";
    sequentially_consistent = true;
    weakly_ordered_drf0 = true;
    new_session;
  }
