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

(* Mirrored but race-free via sync operations on one location (syncs on
   the same location stay dependent, so sleep sets never prune: any
   reduction must come from the visited table). *)
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
     symmetric table must be strictly (and substantially) smaller.  Only
     same-location syncs stay fully dependent, and every step here is
     one, so none of the reduction can come from sleep sets. *)
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
   the verdict and report must not depend on the domain count.  The
   sync row is the 3^6 lattice of per-processor progress: each thread's
   two syncs touch locations it shares with one neighbour each, so
   persistent singletons and location-aware dependence leave one
   expansion per progress vector and no visited-table hits.  The racy
   row's counts are the re-search's, which runs without persistent
   singletons so that the report is the tree search's. *)
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
    [ (false, (729, 729, 0)); (true, (15, 15, 0)) ]

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

(* --- wider programs: where persistent singletons fire ------------------------ *)

(* Three- to five-processor programs from the synth families.  Each
   location of a critical cycle is shared by two threads only, so once
   one of them is past it the other's access is a persistent singleton;
   the two-processor random programs above rarely reach that.  All-sync
   cycles stop at four processors: on five, the closure oracle checks
   over 10^5 tree leaves and takes 5-7 s per program. *)
let mutate_corpus =
  List.filter_map
    (fun (t : Wo_litmus.Litmus.t) ->
      let n = P.num_procs t.Wo_litmus.Litmus.program in
      if t.Wo_litmus.Litmus.loops || n < 3 || n > 5 then None
      else
        Some
          {
            Wo_synth.Synth.base_name = t.Wo_litmus.Litmus.name;
            base_program = t.Wo_litmus.Litmus.program;
            base_drf0 = t.Wo_litmus.Litmus.drf0;
          })
    Wo_litmus.Litmus.all

let wide_program seed =
  let module Cy = Wo_synth.Cycle in
  let cycle ~max_procs sync =
    let rng = Wo_sim.Rng.make seed in
    let shape = Cy.generate ~rng ~min_procs:3 ~max_procs ~sync () in
    Cy.program ~name:(Cy.slug shape) shape
  in
  match seed mod 3 with
  | 0 -> cycle ~max_procs:4 `All
  | 1 -> cycle ~max_procs:5 `Mixed
  | _ -> (
    match
      Wo_synth.Synth.generate ~corpus:mutate_corpus ~family:"mutate" ~seed ()
    with
    | Ok c -> c.Wo_synth.Synth.program
    | Error e -> failwith e)

let wide_gen = QCheck.make ~print:string_of_int QCheck.Gen.small_nat

let prop_wide_verdicts =
  QCheck.Test.make
    ~name:"3-5 processors: DRF0 verdicts equal the closure oracle" ~count:30
    wide_gen (fun seed ->
      let program = wide_program seed in
      let reference = Result.is_ok (Ref.check_drf0_closure program) in
      List.for_all
        (fun domains ->
          reference
          = Result.is_ok (fst (En.check_drf0_stateful ~domains program)))
        [ 1; 3 ])

let prop_wide_reports =
  QCheck.Test.make
    ~name:
      "3-5 processors: racy reports equal check_drf0's (1 and 3 domains, \
       symmetry on and off)"
    ~count:30 wide_gen (fun seed ->
      let program = wide_program seed in
      let reference = Ref.check_drf0 program in
      List.for_all
        (fun (symmetry, domains) ->
          Ref.reports_agree reference
            (fst (En.check_drf0_stateful ~symmetry ~domains program)))
        [ (true, 1); (false, 1); (true, 3); (false, 3) ])

let prop_wide_outcomes =
  QCheck.Test.make ~name:"3-5 processors: outcome sets equal the tree oracle"
    ~count:30 wide_gen (fun seed ->
      let program = wide_program seed in
      let reference = Ref.outcomes program in
      List.for_all
        (fun domains ->
          Ref.outcome_sets_equal reference
            (fst (En.outcomes_stateful ~domains program)))
        [ 1; 3 ])

(* The AST twin walks the same DAG with every sync step dependent on
   every other and no persistent singletons: the unreduced search.
   Larger sleep sets can cost a few expansions on a case (a state first
   claimed with one is explored again when reached with a sleep set
   that is not a superset; seed 11's outcome search expands 126 states
   against 120), so the gate is on some cases and on the total. *)
let test_wide_reduction_fires () =
  let fewer = ref 0 and reduced_sum = ref 0 and unreduced_sum = ref 0 in
  let tally (reduced : En.stateful_stats) (unreduced : En.stateful_stats) =
    if reduced.En.sf_states < unreduced.En.sf_states then incr fewer;
    reduced_sum := !reduced_sum + reduced.En.sf_states;
    unreduced_sum := !unreduced_sum + unreduced.En.sf_states
  in
  for seed = 0 to 29 do
    let program = wide_program seed in
    tally
      (snd (En.outcomes_stateful ~domains:1 program))
      (snd (Ref.outcomes_stateful program));
    match En.check_drf0_stateful ~domains:1 program with
    | Ok (), reduced -> tally reduced (snd (Ref.check_drf0_stateful program))
    | Error _, _ -> ()
  done;
  check "the reduced search expands fewer states on some cases" true
    (!fewer > 0);
  check "and fewer in total" true (!reduced_sum < !unreduced_sum)

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

(* Each domain lends its searches one cleared table.  Whatever the
   previous search left behind — a larger table, a bound that raised
   mid-search, a race that stopped it — the next search must answer and
   count exactly as on a fresh table; the reference runs on a new
   domain, whose spare starts out empty. *)
let test_visited_reuse () =
  let module V = Wo_prog.Visited in
  let probes =
    [
      ( "outcomes",
        fun () ->
          let outs, s =
            En.outcomes_stateful ~domains:1 (mirrored_writes ~procs:2 ~len:4)
          in
          (Ok (), outs, s) );
      ( "drf0",
        fun () ->
          let r, s =
            En.check_drf0_stateful ~domains:1 (mirrored_sync ~procs:3 ~len:2)
          in
          (r, [], s) );
      ( "racy",
        fun () ->
          let r, s = En.check_drf0_stateful ~domains:1 (six_cycle ~racy:true) in
          (r, [], s) );
    ]
  in
  let counts (r, outs, (s : En.stateful_stats)) =
    (r, outs, (s.En.sf_states, s.En.sf_distinct, s.En.sf_hits))
  in
  let same (r, outs, n) (r', outs', n') =
    Ref.reports_agree r r' && Ref.outcome_sets_equal outs outs' && n = n'
  in
  let fresh =
    List.map
      (fun (_, run) -> Domain.join (Domain.spawn (fun () -> counts (run ()))))
      probes
  in
  let befores =
    [
      ( "a larger search",
        fun () ->
          ignore (En.check_drf0_stateful ~domains:1 (six_cycle ~racy:false)) );
      ( "a search past max_events",
        fun () ->
          try
            ignore
              (En.outcomes_stateful ~domains:1 ~max_events:4
                 (mirrored_writes ~procs:2 ~len:6))
          with En.Limit_exceeded -> () );
      ( "a racy stop",
        fun () ->
          ignore (En.check_drf0_stateful ~domains:1 (six_cycle ~racy:true)) );
    ]
  in
  List.iter
    (fun (before, prepare) ->
      List.iter2
        (fun (what, run) reference ->
          prepare ();
          check
            (Printf.sprintf "%s after %s = on a fresh table" what before)
            true
            (same (counts (run ())) reference))
        probes fresh)
    befores;
  (* A search nested inside another's lifetime finds the spare lent out:
     it gets its own table and leaves the holder's alone. *)
  let held = V.borrow () in
  ignore (V.try_claim held "outer" 0);
  List.iter2
    (fun (what, run) reference ->
      check (what ^ " nested = on a fresh table") true
        (same (counts (run ())) reference))
    probes fresh;
  check_int "the holder's table is untouched" 1 (V.size held);
  V.give_back held;
  let again = V.borrow () in
  check_int "a returned table comes back cleared" 0 (V.size again);
  check_int "with its hit count reset" 0 (V.hits again);
  V.give_back again

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
    Alcotest.test_case "visited table reuse = fresh table" `Quick
      test_visited_reuse;
    Alcotest.test_case "3-5 processors: reduction fires" `Quick
      test_wide_reduction_fires;
    Alcotest.test_case "wsq runs every task" `Quick test_wsq_runs_every_task;
    Alcotest.test_case "wsq propagates exceptions" `Quick
      test_wsq_propagates_exceptions;
    QCheck_alcotest.to_alcotest prop_outcomes_stateful_equals_tree;
    QCheck_alcotest.to_alcotest prop_check_stateful_equals_closure;
    QCheck_alcotest.to_alcotest prop_check_stateful_report_deterministic;
    QCheck_alcotest.to_alcotest prop_wide_verdicts;
    QCheck_alcotest.to_alcotest prop_wide_reports;
    QCheck_alcotest.to_alcotest prop_wide_outcomes;
  ]
