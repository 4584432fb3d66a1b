(* Tests for the vector-clock substrate and for race checking with the
   incremental checker built on it: hand-built executions, sampled
   schedules, and agreement with the closure-based checker. *)

module V = Wo_core.Vector_clock
module Inc = Wo_core.Drf0_inc
module E = Wo_core.Event
module X = Wo_core.Execution

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- vector clocks ---------------------------------------------------------- *)

let test_vc_basics () =
  let v = V.zero 3 in
  check_int "size" 3 (V.size v);
  check_int "component" 0 (V.get v 1);
  let v' = V.tick v 1 in
  check_int "ticked" 1 (V.get v' 1);
  check_int "others untouched" 0 (V.get v' 0);
  check "original unchanged" true (V.get v 1 = 0)

let test_vc_order () =
  let a = V.tick (V.zero 2) 0 in
  let b = V.tick a 1 in
  check "a <= b" true (V.leq a b);
  check "not b <= a" false (V.leq b a);
  check "reflexive" true (V.leq a a);
  let c = V.tick (V.zero 2) 1 in
  check "concurrent" true (V.concurrent a c);
  check "not concurrent with self" false (V.concurrent a a)

let test_vc_size_mismatch () =
  Alcotest.check_raises "join mismatch"
    (Invalid_argument "Vector_clock: size mismatch") (fun () ->
      ignore (V.join (V.zero 2) (V.zero 3)))

let arbitrary_vc =
  QCheck.(map (fun l ->
      List.fold_left (fun v (i ) -> V.tick v (i mod 4)) (V.zero 4) l)
    (small_list (0 -- 3)))

let prop_join_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:200
    QCheck.(pair arbitrary_vc arbitrary_vc)
    (fun (a, b) -> V.equal (V.join a b) (V.join b a))

let prop_join_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:200 arbitrary_vc (fun a ->
      V.equal (V.join a a) a)

let prop_join_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound" ~count:200
    QCheck.(pair arbitrary_vc arbitrary_vc)
    (fun (a, b) ->
      let j = V.join a b in
      V.leq a j && V.leq b j)

let prop_leq_antisymmetric =
  QCheck.Test.make ~name:"leq antisymmetric" ~count:200
    QCheck.(pair arbitrary_vc arbitrary_vc)
    (fun (a, b) -> (not (V.leq a b && V.leq b a)) || V.equal a b)

(* --- hand-built executions ------------------------------------------------ *)

(* The incremental verdict, checked against the closure-based checker
   under the same synchronization model. *)
let race_free ?(model = Wo_core.Sync_model.drf0) exn =
  let mode = Option.get (Inc.mode_of_model model) in
  let free = Inc.check_execution ~mode exn = None in
  check "agrees with the closure checker" free
    (Wo_core.Drf0.races ~model exn = []);
  free

let test_figure2 () =
  check "figure 2(a) race-free" true (race_free Wo_litmus.Figure2.execution_a);
  check "figure 2(b) racy" false (race_free Wo_litmus.Figure2.execution_b)

let test_simple_race () =
  let exn =
    X.build
      [ (0, E.Data_write, 0, None, Some 1); (1, E.Data_read, 0, Some 1, None) ]
  in
  check "racy" false (race_free exn);
  check_int "one race" 1 (List.length (Wo_core.Drf0.races exn))

let test_sync_ordering () =
  let exn =
    X.build
      [
        (0, E.Data_write, 0, None, Some 1);
        (0, E.Sync_write, 6, None, Some 1);
        (1, E.Sync_read, 6, Some 1, None);
        (1, E.Data_read, 0, Some 1, None);
      ]
  in
  check "synchronized handoff clean" true (race_free exn)

let test_drf1_model () =
  (* Release via read-only synchronization: DRF0-clean, DRF1-racy. *)
  let exn =
    X.build
      [
        (0, E.Data_write, 0, None, Some 1);
        (0, E.Sync_read, 6, Some 0, None);
        (1, E.Sync_rmw, 6, Some 0, Some 1);
        (1, E.Data_read, 0, Some 1, None);
      ]
  in
  check "drf0 clean" true (race_free exn);
  check "drf1 racy" false (race_free ~model:Wo_core.Sync_model.drf1 exn)

let test_write_write () =
  let exn =
    X.build
      [ (0, E.Data_write, 0, None, Some 1); (1, E.Data_write, 0, None, Some 2) ]
  in
  check "write-write race" false (race_free exn)

let test_read_read_clean () =
  let exn =
    X.build
      [ (0, E.Data_read, 0, Some 0, None); (1, E.Data_read, 0, Some 0, None) ]
  in
  check "read-read never races" true (race_free exn)

(* --- sampled schedules --------------------------------------------------- *)

(* Seeded idealized schedules, each checked with the incremental race
   checker: how `wo check' treats a test with spin loops.  One race per
   racy schedule. *)
let sampled_races ?(schedules = 10) program =
  let art = Option.get (Wo_prog.Prog_compile.compile program) in
  List.filter_map
    (fun seed ->
      Inc.check_execution
        (Wo_prog.Cinterp.execution (Wo_prog.Cinterp.run_random ~seed art)))
    (List.init schedules Fun.id)

let test_sample_program () =
  let program t = t.Wo_litmus.Litmus.program in
  check "racy program caught by sampling" true
    (sampled_races (program Wo_litmus.Litmus.figure1) <> []);
  check "clean program has no sampled races" true
    (sampled_races (program Wo_litmus.Litmus.dekker_sync) = []);
  check "clean spin-loop program has no sampled races" true
    (sampled_races (program Wo_litmus.Litmus.message_passing_sync) = [])

(* Agreement with the exhaustive checker on one random schedule of a
   larger random program: the incremental checker reports a race iff the
   quadratic checker (without augmentation) does. *)
let prop_agrees_with_drf0 =
  QCheck.Test.make ~name:"detector agrees with the exhaustive checker"
    ~count:150
    QCheck.(pair small_int small_int)
    (fun (pseed, sseed) ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:3 ~ops_per_proc:4
          ~locs:2 ()
      in
      let exn =
        Wo_oracle.Interp.execution (Wo_oracle.Interp.run_random ~seed:sseed program)
      in
      let exhaustive = Wo_core.Drf0.races ~augment:false exn <> [] in
      let streaming = Inc.check_execution exn <> None in
      exhaustive = streaming)

let prop_lock_disciplined_race_free =
  QCheck.Test.make ~name:"lock-disciplined programs are race-free" ~count:30
    QCheck.small_int (fun seed ->
      let program =
        Wo_synth.Synth.lock_disciplined ~seed ~procs:2
          ~sections_per_proc:2 ()
      in
      List.for_all
        (fun sseed ->
          Inc.check_execution
            (Wo_oracle.Interp.execution
               (Wo_oracle.Interp.run_random ~seed:sseed program))
          = None)
        [ 1; 2; 3 ])

let tests =
  [
    Alcotest.test_case "vector clock basics" `Quick test_vc_basics;
    Alcotest.test_case "vector clock order" `Quick test_vc_order;
    Alcotest.test_case "size mismatch" `Quick test_vc_size_mismatch;
    QCheck_alcotest.to_alcotest prop_join_commutative;
    QCheck_alcotest.to_alcotest prop_join_idempotent;
    QCheck_alcotest.to_alcotest prop_join_upper_bound;
    QCheck_alcotest.to_alcotest prop_leq_antisymmetric;
    Alcotest.test_case "detector on figure 2" `Quick test_figure2;
    Alcotest.test_case "simple race" `Quick test_simple_race;
    Alcotest.test_case "synchronized handoff" `Quick test_sync_ordering;
    Alcotest.test_case "drf1 model" `Quick test_drf1_model;
    Alcotest.test_case "write-write" `Quick test_write_write;
    Alcotest.test_case "read-read" `Quick test_read_read_clean;
    Alcotest.test_case "sampling programs" `Quick test_sample_program;
    QCheck_alcotest.to_alcotest prop_agrees_with_drf0;
    QCheck_alcotest.to_alcotest prop_lock_disciplined_race_free;
  ]
