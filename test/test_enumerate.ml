(* Tests for the interleaving enumerator — the "all executions on the
   idealized architecture" quantifier of Definition 3. *)

module I = Wo_prog.Instr
module P = Wo_prog.Program
module En = Wo_oracle.Enum_ref
module O = Wo_prog.Outcome
module N = Wo_prog.Names

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sb = Wo_litmus.Litmus.figure1.Wo_litmus.Litmus.program

let test_store_buffering_outcomes () =
  let outs = En.outcomes sb in
  check_int "exactly 3 SC outcomes" 3 (List.length outs);
  let both_zero =
    List.exists
      (fun o -> O.register o 0 N.r0 = Some 0 && O.register o 1 N.r0 = Some 0)
      outs
  in
  check "both-zero excluded" false both_zero

let test_message_passing_outcomes () =
  let mp = Wo_litmus.Litmus.message_passing.Wo_litmus.Litmus.program in
  let outs = En.outcomes mp in
  (* flag/data read combinations under SC: (0,0) (0,42) (1,42) *)
  check_int "three outcomes" 3 (List.length outs);
  check "flag-without-data excluded" false
    (List.exists
       (fun o -> O.register o 1 N.r1 = Some 1 && O.register o 1 N.r0 = Some 0)
       outs)

let test_dekker_sync_outcomes () =
  let outs =
    En.outcomes Wo_litmus.Litmus.dekker_sync.Wo_litmus.Litmus.program
  in
  check "both-killed excluded" false
    (List.exists Wo_litmus.Litmus.both_killed outs)

let test_single_thread_single_outcome () =
  let p = P.make [ [ I.Write (0, I.Const 1); I.Read (0, 0) ] ] in
  check_int "deterministic" 1 (List.length (En.outcomes p))

let test_execution_count () =
  (* Two independent single-op threads interleave in exactly 2 ways. *)
  let p = P.make [ [ I.Write (0, I.Const 1) ]; [ I.Write (1, I.Const 1) ] ] in
  check_int "2 interleavings" 2
    (List.length (List.of_seq (En.executions p)))

let test_interleaving_count_is_binomial () =
  (* Two threads of 3 independent ops each: C(6,3) = 20 interleavings. *)
  let ops loc = List.init 3 (fun i -> I.Write (loc, I.Const i)) in
  let p = P.make [ ops 0; ops 1 ] in
  check_int "C(6,3)" 20 (List.length (List.of_seq (En.executions p)))

let test_limits_raise () =
  (* The two threads are fully independent, so the reduced enumerator
     visits a single representative; the execution-count limits are
     exercised against the exhaustive oracle. *)
  let p =
    P.make
      [
        List.init 8 (fun i -> I.Write (0, I.Const i));
        List.init 8 (fun i -> I.Write (1, I.Const i));
      ]
  in
  check "max_executions raises" true
    (try
       ignore (En.outcomes ~strategy:En.Naive ~max_executions:10 p);
       false
     with En.Limit_exceeded -> true);
  check "max_events raises" true
    (try
       ignore (En.outcomes ~strategy:En.Naive ~max_events:4 p);
       false
     with En.Limit_exceeded -> true);
  (* max_events bounds a single execution's length, so it binds the
     reduced enumerator identically. *)
  check "max_events raises under POR" true
    (try
       ignore (En.outcomes ~max_events:4 p);
       false
     with En.Limit_exceeded -> true)

let test_outcomes_with_stats_truncates () =
  let p =
    P.make
      [
        List.init 6 (fun i -> I.Write (0, I.Const i));
        List.init 6 (fun i -> I.Write (1, I.Const i));
      ]
  in
  let _outs, stats =
    En.outcomes_with_stats ~strategy:En.Naive ~max_executions:5 p
  in
  check "truncated flag" true stats.En.truncated;
  check "counted" true (stats.En.executions >= 5);
  let _outs, stats = En.outcomes_with_stats p in
  check "complete run not truncated" false stats.En.truncated;
  check "states counted" true (stats.En.states > 0)

(* --- partial-order reduction --------------------------------------------- *)

let test_por_matches_naive_on_litmus () =
  List.iter
    (fun (t : Wo_litmus.Litmus.t) ->
      let naive = En.outcomes ~strategy:En.Naive t.Wo_litmus.Litmus.program in
      let por = En.outcomes ~strategy:En.Por t.Wo_litmus.Litmus.program in
      check
        (Printf.sprintf "POR outcomes equal naive on %s" t.Wo_litmus.Litmus.name)
        true
        (En.outcome_sets_equal naive por))
    [
      Wo_litmus.Litmus.figure1;
      Wo_litmus.Litmus.message_passing;
      Wo_litmus.Litmus.dekker_sync;
      Wo_litmus.Litmus.atomicity;
      Wo_litmus.Litmus.coherence;
    ]

let test_por_prunes_states () =
  (* Independent per-thread prologues blow up the naive interleaving count
     but are all Mazurkiewicz-equivalent; POR must explore far fewer
     search-tree nodes while producing the same outcome set. *)
  let pad loc = List.init 4 (fun i -> I.Write (loc, I.Const i)) in
  let p =
    P.make
      [
        pad 2 @ [ I.Write (0, I.Const 1); I.Read (N.r0, 1) ];
        pad 3 @ [ I.Write (1, I.Const 1); I.Read (N.r0, 0) ];
      ]
  in
  let naive_outs, naive = En.outcomes_with_stats ~strategy:En.Naive p in
  let por_outs, por = En.outcomes_with_stats ~strategy:En.Por p in
  check "same outcome set" true (En.outcome_sets_equal naive_outs por_outs);
  check "POR visits fewer states" true (por.En.states * 5 <= naive.En.states);
  check "POR enumerates fewer executions" true
    (por.En.executions < naive.En.executions)

let prop_por_outcomes_equal_naive =
  (* Program shapes stay small because the naive side is exponential: the
     warmed racy generator emits (locs + ops_per_proc) memory events per
     processor. *)
  QCheck.Test.make
    ~name:"POR outcome set equals the naive oracle on random programs"
    ~count:60 QCheck.small_int (fun pseed ->
      let procs = 2 + (pseed mod 2) in
      let ops_per_proc = if procs = 2 then 3 else 2 in
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs ~ops_per_proc ~locs:2 ()
      in
      En.outcome_sets_equal
        (En.outcomes ~strategy:En.Naive program)
        (En.outcomes ~strategy:En.Por program))

let prop_por_drf0_verdict_equals_naive =
  QCheck.Test.make
    ~name:"POR and naive check_drf0 verdicts agree on random programs"
    ~count:40 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3
          ~locs:2 ()
      in
      (En.check_drf0 ~strategy:En.Naive program = Ok ())
      = (En.check_drf0 ~strategy:En.Por program = Ok ()))

let test_check_drf0 () =
  check "figure1 racy" true (En.check_drf0 sb <> Ok ());
  check "dekker-sync race-free" true
    (En.check_drf0 Wo_litmus.Litmus.dekker_sync.Wo_litmus.Litmus.program = Ok ());
  check "atomicity race-free" true
    (En.check_drf0 Wo_litmus.Litmus.atomicity.Wo_litmus.Litmus.program = Ok ());
  check "sync-chain race-free" true
    (En.check_drf0 Wo_litmus.Litmus.sync_chain.Wo_litmus.Litmus.program = Ok ())

(* Properties tying the enumerator to the reference interpreter. *)

let prop_random_run_in_enumerated_set =
  QCheck.Test.make
    ~name:"every randomly scheduled run's outcome is enumerated" ~count:50
    QCheck.(pair small_int small_int)
    (fun (pseed, sseed) ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3
          ~locs:2 ()
      in
      let observed =
        Wo_oracle.Interp.outcome (Wo_oracle.Interp.run_random ~seed:sseed program)
      in
      List.exists
        (fun o -> O.compare o observed = 0)
        (En.outcomes program))

let prop_round_robin_in_enumerated_set =
  QCheck.Test.make ~name:"the round-robin outcome is enumerated" ~count:50
    QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:3 ~ops_per_proc:2
          ~locs:2 ()
      in
      let observed = Wo_oracle.Interp.outcome (Wo_oracle.Interp.run_round_robin program) in
      List.exists (fun o -> O.compare o observed = 0) (En.outcomes program))

let prop_all_executions_are_sc =
  QCheck.Test.make ~name:"every enumerated execution passes the SC witness"
    ~count:25 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3
          ~locs:2 ()
      in
      Seq.for_all Wo_oracle.Sc.is_sequentially_consistent
        (En.executions program))

let tests =
  [
    Alcotest.test_case "store buffering" `Quick test_store_buffering_outcomes;
    Alcotest.test_case "message passing" `Quick test_message_passing_outcomes;
    Alcotest.test_case "dekker-sync" `Quick test_dekker_sync_outcomes;
    Alcotest.test_case "single thread" `Quick test_single_thread_single_outcome;
    Alcotest.test_case "execution count" `Quick test_execution_count;
    Alcotest.test_case "binomial interleavings" `Quick
      test_interleaving_count_is_binomial;
    Alcotest.test_case "limits raise" `Quick test_limits_raise;
    Alcotest.test_case "stats truncate" `Quick test_outcomes_with_stats_truncates;
    Alcotest.test_case "check_drf0" `Quick test_check_drf0;
    Alcotest.test_case "POR matches naive on litmus" `Quick
      test_por_matches_naive_on_litmus;
    Alcotest.test_case "POR prunes states" `Quick test_por_prunes_states;
    QCheck_alcotest.to_alcotest prop_por_outcomes_equal_naive;
    QCheck_alcotest.to_alcotest prop_por_drf0_verdict_equals_naive;
    QCheck_alcotest.to_alcotest prop_random_run_in_enumerated_set;
    QCheck_alcotest.to_alcotest prop_round_robin_in_enumerated_set;
    QCheck_alcotest.to_alcotest prop_all_executions_are_sc;
  ]
