(* Cross-checks between independent implementations of the same notion —
   the strongest tests in the suite, because a bug must hit two different
   algorithms identically to slip through. *)

module R = Wo_core.Relation
module E = Wo_core.Event
module X = Wo_core.Execution

let check = Alcotest.(check bool)

(* 1. The SC witness search vs. relation linearization: for loop-free
   programs, the number of idealized executions equals the number of
   linearizations of the (memory-operation) program-order relation. *)
let prop_enumeration_count_matches_linearizations =
  QCheck.Test.make
    ~name:"enumerated executions = linearizations of program order" ~count:30
    QCheck.small_int (fun seed ->
      let program =
        Wo_synth.Synth.racy ~seed ~procs:2 ~ops_per_proc:3 ~locs:2 ()
      in
      let executions =
        List.of_seq (Wo_oracle.Enum_ref.executions program)
      in
      match executions with
      | [] -> false
      | first :: _ ->
        let po = X.program_order first in
        let nodes = List.map (fun (e : E.t) -> e.E.id) (X.events first) in
        let linearizations = R.linearizations ~nodes po in
        List.length executions = List.length linearizations)

(* 2. The Lemma-1 oracle vs. the SC witness search on machine traces: on a
   DRF0 program, a trace accepted by Lemma 1 must also admit an SC
   witness (Lemma 1 is sufficient for sequential consistency). *)
let prop_lemma1_implies_sc_witness =
  QCheck.Test.make ~name:"Lemma-1-accepted traces admit SC witnesses"
    ~count:20 QCheck.small_int (fun seed ->
      let t = Wo_litmus.Litmus.dekker_sync in
      let r =
        Wo_machines.Machine.run Wo_machines.Presets.wo_new ~seed:(seed + 1)
          t.Wo_litmus.Litmus.program
      in
      let lemma1_ok = Wo_machines.Machine.check_lemma1 r = Ok () in
      let threads =
        let events = Wo_sim.Trace.events r.Wo_machines.Machine.trace in
        let procs =
          List.sort_uniq Int.compare
            (List.map (fun (e : E.t) -> e.E.proc) events)
        in
        List.map
          (fun p ->
            List.filter (fun (e : E.t) -> e.E.proc = p) events
            |> List.sort (fun (a : E.t) b -> compare a.E.seq b.E.seq))
          procs
      in
      let witness_ok = Wo_oracle.Sc.witness threads <> None in
      (not lemma1_ok) || witness_ok)

(* 3. The exhaustive DRF0 checker vs. the incremental (streaming) race
   checker on every enumerated execution of small random programs (not
   just one). *)
let prop_all_executions_agree =
  QCheck.Test.make
    ~name:"exhaustive checker and detector agree on every execution"
    ~count:15 QCheck.small_int (fun seed ->
      let program =
        Wo_synth.Synth.racy ~seed ~procs:2 ~ops_per_proc:2 ~locs:2 ()
      in
      Seq.for_all
        (fun exn ->
          (Wo_core.Drf0.races ~augment:false exn <> [])
          = (Wo_core.Drf0_inc.check_execution exn <> None))
        (Wo_oracle.Enum_ref.executions program))

(* 4. Machine outcome vs. trace: replaying the trace's reads against the
   recorded write values through the SC witness reproduces the machine's
   registered outcome values for litmus-scale DRF0 runs (the trace is a
   faithful record of what the machine did). *)
let test_trace_read_values_match_outcome () =
  let t = Wo_litmus.Litmus.dekker_sync in
  for seed = 1 to 10 do
    let r =
      Wo_machines.Machine.run Wo_machines.Presets.wo_old ~seed
        t.Wo_litmus.Litmus.program
    in
    (* each processor's r0 is the value of its (only) read event *)
    List.iter
      (fun (e : E.t) ->
        if E.is_read e && e.E.kind = E.Sync_read then
          match
            Wo_prog.Outcome.register r.Wo_machines.Machine.outcome e.E.proc
              Wo_prog.Names.r0
          with
          | Some v ->
            check "trace read value matches outcome register" true
              (e.E.read_value = Some v)
          | None -> Alcotest.fail "register missing")
      (Wo_sim.Trace.events r.Wo_machines.Machine.trace)
  done

(* 5. Figure-2(a) is also clean under the incremental race checker AND
   satisfies Lemma 1 directly (three independent validations of one
   artifact). *)
let test_figure2a_three_ways () =
  let exn = Wo_litmus.Figure2.execution_a in
  check "exhaustive" true (Wo_core.Drf0.obeys exn);
  check "streaming" true (Wo_core.Drf0_inc.check_execution exn = None);
  check "lemma1" true (Wo_core.Lemma1.check_execution exn = Ok ())

let tests =
  [
    QCheck_alcotest.to_alcotest prop_enumeration_count_matches_linearizations;
    QCheck_alcotest.to_alcotest prop_lemma1_implies_sc_witness;
    QCheck_alcotest.to_alcotest prop_all_executions_agree;
    Alcotest.test_case "trace values match outcomes" `Quick
      test_trace_read_values_match_outcome;
    Alcotest.test_case "figure 2(a) three ways" `Quick test_figure2a_three_ways;
  ]
