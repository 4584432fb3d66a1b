(* Tests for the stateful (DAG) enumerator: canonical state hashing,
   symmetry reduction and the work-stealing scheduler.  The contract under
   test is identity — outcome sets and DRF0 verdicts (including the
   reported first race) must match the tree-search oracles of
   [Wo_oracle.Enum_ref] for every symmetry setting and domain count —
   plus the non-triviality of the optimization: convergent and mirrored
   programs must actually dedup. *)

module I = Wo_prog.Instr
module P = Wo_prog.Program
module En = Wo_prog.Enumerate
module Ref = Wo_oracle.Enum_ref

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A state-convergent, processor-symmetric family: every thread writes the
   same value sequence to the same location, so all interleavings of equal
   event count reach identical states (the tree is exponential, the DAG
   linear) and every thread permutation is an automorphism. *)
let mirrored_writes ~procs ~len =
  P.make (List.init procs (fun _ -> List.init len (fun _ -> I.Write (0, I.Const 1))))

(* Mirrored but racy-free via sync operations (fully dependent, so sleep
   sets never prune: any reduction must come from the visited table). *)
let mirrored_sync ~procs ~len =
  P.make
    (List.init procs (fun _ ->
         List.init len (fun _ -> I.Sync_write (0, I.Const 1))))

let litmus_programs =
  [
    Wo_litmus.Litmus.figure1.Wo_litmus.Litmus.program;
    Wo_litmus.Litmus.message_passing.Wo_litmus.Litmus.program;
    Wo_litmus.Litmus.dekker_sync.Wo_litmus.Litmus.program;
    Wo_litmus.Litmus.atomicity.Wo_litmus.Litmus.program;
    Wo_litmus.Litmus.coherence.Wo_litmus.Litmus.program;
  ]

(* --- outcome identity ------------------------------------------------------ *)

let test_outcomes_stateful_matches_litmus () =
  List.iter
    (fun program ->
      let reference = Ref.outcomes program in
      List.iter
        (fun domains ->
          let got, _ = En.outcomes_stateful ~domains program in
          check
            (Printf.sprintf "stateful outcomes match (domains=%d)" domains)
            true
            (Ref.outcome_sets_equal reference got))
        [ 1; 3 ];
      (* The E19 trace's [outcomes_with_stats] is the one-domain search. *)
      let outs, st = En.outcomes_with_stats program in
      let _, sf = En.outcomes_stateful ~domains:1 program in
      check "outcomes_with_stats outcomes" true
        (Ref.outcome_sets_equal reference outs);
      check "outcomes_with_stats counts" true
        (st.En.states = sf.En.sf_states
        && st.En.executions = sf.En.sf_executions
        && not st.En.truncated))
    litmus_programs

let prop_outcomes_stateful_equals_tree =
  QCheck.Test.make
    ~name:"stateful outcome set equals the tree enumerator on random programs"
    ~count:40 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3
          ~locs:2 ()
      in
      let reference = Ref.outcomes ~strategy:Ref.Naive program in
      List.for_all
        (fun domains ->
          Ref.outcome_sets_equal reference
            (fst (En.outcomes_stateful ~domains program)))
        [ 1; 3 ])

let test_outcomes_stateful_dedups () =
  (* C(8,4) = 70 tree leaves collapse onto a 5x5 grid of distinct states.
     The writes all conflict, so sleep sets prune nothing: the reduction
     is the visited table's. *)
  let p = mirrored_writes ~procs:2 ~len:4 in
  let tree_outs, tree = Ref.outcomes_with_stats ~strategy:Ref.Naive p in
  let dag_outs, dag = En.outcomes_stateful ~domains:1 p in
  check "same outcomes" true (Ref.outcome_sets_equal tree_outs dag_outs);
  check "dedup hits observed" true (dag.En.sf_hits > 0);
  check "at least 2x fewer states" true
    (2 * dag.En.sf_states <= tree.Ref.states);
  check_int "one execution survives per leaf-equivalent state" 1
    dag.En.sf_executions

(* --- DRF0 identity --------------------------------------------------------- *)

let test_check_stateful_litmus () =
  List.iter
    (fun program ->
      let reference = Ref.check_drf0_closure program in
      List.iter
        (fun domains ->
          List.iter
            (fun symmetry ->
              let got, _ =
                En.check_drf0_stateful ~symmetry ~domains program
              in
              check
                (Printf.sprintf
                   "stateful verdict matches closure oracle (domains=%d \
                    symmetry=%b)"
                   domains symmetry)
                true
                (Result.is_ok reference = Result.is_ok got))
            [ true; false ])
        [ 1; 3 ])
    litmus_programs

let prop_check_stateful_equals_closure =
  QCheck.Test.make
    ~name:
      "stateful DRF0 verdict equals the closure oracle on random programs \
       (1 and N domains)"
    ~count:30 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3
          ~locs:2 ()
      in
      let reference = Ref.check_drf0_closure program in
      List.for_all
        (fun domains ->
          Result.is_ok reference
          = Result.is_ok (fst (En.check_drf0_stateful ~domains program)))
        [ 1; 3 ])

let prop_check_stateful_report_deterministic =
  (* Not just the verdict: the reported racy execution and race pair must
     equal the tree checker's, for any domain count — sequential DAG walks
     find the same first racy prefix, parallel ones re-search sequentially. *)
  QCheck.Test.make
    ~name:"stateful racy reports equal check_drf0's at every domain count"
    ~count:30 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3
          ~locs:2 ()
      in
      let reference = Ref.check_drf0 program in
      List.for_all
        (fun domains ->
          Ref.reports_agree reference
            (fst (En.check_drf0_stateful ~domains program)))
        [ 1; 3 ])

let test_symmetry_reduces_states () =
  (* Four identical sync-writing threads: 4! thread arrangements per
     reachable profile collapse onto one orbit representative, so the
     symmetric table must be strictly (and substantially) smaller.  Sync
     steps are fully dependent, so none of the reduction can come from
     sleep sets. *)
  let p = mirrored_sync ~procs:4 ~len:2 in
  let r_sym, s_sym = En.check_drf0_stateful ~symmetry:true ~domains:1 p in
  let r_raw, s_raw = En.check_drf0_stateful ~symmetry:false ~domains:1 p in
  check "race-free either way" true (r_sym = Ok () && r_raw = Ok ());
  check "symmetry shrinks the table" true
    (2 * s_sym.En.sf_distinct <= s_raw.En.sf_distinct);
  check "symmetry expands fewer states" true
    (s_sym.En.sf_states < s_raw.En.sf_states)

(* Six-processor critical cycles of the {Rf, Rf, Fr, Fr, Ws, Ws} kind
   set, the shape E19's drf0-check runs: every endpoint a sync op (race
   free), or the last edge's endpoints plain data (racy).  The state key
   must not move the search, so the one-domain counts are pinned, and
   the verdict and report must not depend on the domain count. *)
let six_cycle ~racy =
  let module Cy = Wo_synth.Cycle in
  let kinds = Cy.[ Rf; Rf; Fr; Fr; Ws; Ws ] in
  Cy.program ~name:(if racy then "six-racy" else "six-sync")
    {
      Cy.edges =
        List.mapi
          (fun i conflict ->
            let sync = not (racy && i = 5) in
            { Cy.conflict; sync_from = sync; sync_to = sync })
          kinds;
      padding = [ 0; 1; 2; 0; 1; 2 ];
    }

let test_six_cycle_counts_pinned () =
  List.iter
    (fun (racy, (states, distinct, hits)) ->
      let p = six_cycle ~racy in
      let r1, s = En.check_drf0_stateful ~domains:1 p in
      let what = if racy then "racy" else "sync" in
      check (what ^ " verdict") racy (Result.is_error r1);
      check_int (what ^ " states") states s.En.sf_states;
      check_int (what ^ " distinct") distinct s.En.sf_distinct;
      check_int (what ^ " hits") hits s.En.sf_hits;
      List.iter
        (fun domains ->
          check
            (Printf.sprintf "%s report with %d domains" what domains)
            true
            (Ref.reports_agree r1 (fst (En.check_drf0_stateful ~domains p))))
        [ 2; 4 ])
    [ (false, (2701, 2701, 5406)); (true, (15, 15, 0)) ]

let test_stateful_limits_raise () =
  let p = mirrored_writes ~procs:2 ~len:6 in
  check "max_events raises" true
    (try
       ignore (En.outcomes_stateful ~max_events:4 p);
       false
     with En.Limit_exceeded -> true);
  (* The bound is on complete executions, so the program must be race-free
     (a race aborts the search long before any leaf). *)
  check "max_executions raises (bound below leaf count)" true
    (try
       ignore
         (En.check_drf0_stateful ~max_executions:0
            (mirrored_sync ~procs:2 ~len:2));
       false
     with En.Limit_exceeded -> true)

(* --- visited table --------------------------------------------------------- *)

let test_visited_claim_discipline () =
  let t = Wo_prog.Visited.create ~shards:3 () in
  (match Wo_prog.Visited.try_claim t "k" 0b11 with
  | `Explore s -> check_int "first claim keeps its sleep set" 0b11 s
  | `Skip -> Alcotest.fail "first claim must explore");
  (* Smaller sleep set = more executions: must widen, not skip. *)
  (match Wo_prog.Visited.try_claim t "k" 0b01 with
  | `Explore s -> check_int "re-explores with the intersection" 0b01 s
  | `Skip -> Alcotest.fail "subset claim must re-explore");
  (* Now 0b01 is claimed; any superset is covered. *)
  (match Wo_prog.Visited.try_claim t "k" 0b11 with
  | `Skip -> ()
  | `Explore _ -> Alcotest.fail "superset revisit must skip");
  check_int "one distinct state" 1 (Wo_prog.Visited.size t);
  check_int "one hit" 1 (Wo_prog.Visited.hits t);
  (* Distinct keys never interact, whatever the hash does. *)
  (match Wo_prog.Visited.try_claim t "k2" 0b11 with
  | `Explore _ -> ()
  | `Skip -> Alcotest.fail "fresh key must explore");
  check_int "two distinct states" 2 (Wo_prog.Visited.size t)

(* --- work-stealing scheduler ----------------------------------------------- *)

let test_wsq_runs_every_task () =
  (* Each root task n spawns subtasks n-1 .. 1; with roots 5 and 7 the grand
     total is 5 + 7 = 12 task executions.  Sum across per-worker counters to
     confirm nothing is lost or duplicated under stealing. *)
  let executed = Atomic.make 0 in
  let stats =
    Wo_prog.Wsq.run ~domains:4 ~roots:[ 5; 7 ]
      (fun ~worker:_ ~push ~hungry:_ ~halt:_ n ->
        Atomic.incr executed;
        if n > 1 then push (n - 1))
  in
  check_int "every task ran exactly once" 12 (Atomic.get executed);
  check_int "per-worker counters account for every task" 12
    (Array.fold_left ( + ) 0 stats.Wo_prog.Wsq.executed);
  check_int "one counter per domain" 4 (Array.length stats.Wo_prog.Wsq.executed)

let test_wsq_propagates_exceptions () =
  let cleanly_raised =
    try
      ignore
        (Wo_prog.Wsq.run ~domains:3 ~roots:[ 1; 2; 3; 4; 5; 6 ]
           (fun ~worker:_ ~push:_ ~hungry:_ ~halt:_ n ->
             if n = 4 then failwith "boom"));
      false
    with Failure m -> m = "boom"
  in
  check "worker failure re-raised after joining" true cleanly_raised

let tests =
  [
    Alcotest.test_case "stateful outcomes on litmus" `Quick
      test_outcomes_stateful_matches_litmus;
    Alcotest.test_case "stateful dedups convergent schedules" `Quick
      test_outcomes_stateful_dedups;
    Alcotest.test_case "stateful DRF0 on litmus" `Quick
      test_check_stateful_litmus;
    Alcotest.test_case "symmetry reduces states" `Quick
      test_symmetry_reduces_states;
    Alcotest.test_case "six-processor cycle counts pinned" `Quick
      test_six_cycle_counts_pinned;
    Alcotest.test_case "stateful limits raise" `Quick test_stateful_limits_raise;
    Alcotest.test_case "visited claim discipline" `Quick
      test_visited_claim_discipline;
    Alcotest.test_case "wsq runs every task" `Quick test_wsq_runs_every_task;
    Alcotest.test_case "wsq propagates exceptions" `Quick
      test_wsq_propagates_exceptions;
    QCheck_alcotest.to_alcotest prop_outcomes_stateful_equals_tree;
    QCheck_alcotest.to_alcotest prop_check_stateful_equals_closure;
    QCheck_alcotest.to_alcotest prop_check_stateful_report_deterministic;
  ]
