(* Tests for the monitors-model (lockset) checker. *)

module LS = Wo_race.Lockset
module E = Wo_core.Event
module X = Wo_core.Execution

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_ideal program ~seed =
  Wo_oracle.Interp.execution (Wo_oracle.Interp.run_random ~seed program)

(* P0 and P1 both: acquire lock 6, touch x, release. *)
let locked =
  X.build
    [
      (0, E.Sync_rmw, 6, Some 0, Some 1);   (* P0 acquires *)
      (0, E.Data_read, 0, Some 0, None);
      (0, E.Data_write, 0, None, Some 1);
      (0, E.Sync_write, 6, None, Some 0);   (* release *)
      (1, E.Sync_rmw, 6, Some 0, Some 1);
      (1, E.Data_write, 0, None, Some 2);
      (1, E.Sync_write, 6, None, Some 0);
    ]

let test_locked_passes () =
  check "lock-protected sharing accepted" true (LS.obeys_monitors_model locked)

let unlocked =
  X.build
    [
      (0, E.Data_write, 0, None, Some 1);
      (1, E.Data_write, 0, None, Some 2);
    ]

let test_unlocked_fails () =
  let vs = LS.check_execution unlocked in
  check_int "one violation" 1 (List.length vs);
  check_int "on location x" 0 (List.hd vs).LS.loc;
  check "no locks were held" true ((List.hd vs).LS.held = [])

let test_exclusive_locations_ok () =
  (* one processor only: no locks required *)
  let exn =
    X.build
      [
        (0, E.Data_write, 0, None, Some 1);
        (0, E.Data_read, 0, Some 1, None);
        (0, E.Data_write, 0, None, Some 2);
      ]
  in
  check "thread-local data accepted" true (LS.obeys_monitors_model exn)

let test_read_shared_after_init_ok () =
  (* initialize exclusively, then other processors only read: the candidate
     set never empties on a write *)
  let exn =
    X.build
      [
        (0, E.Data_write, 0, None, Some 1);
        (1, E.Data_read, 0, Some 1, None);
        (2, E.Data_read, 0, Some 1, None);
      ]
  in
  check "read-shared data accepted" true (LS.obeys_monitors_model exn)

let test_failed_tas_is_not_an_acquire () =
  (* P1's TestAndSet reads 1 (lock busy), so its access is unprotected *)
  let exn =
    X.build
      [
        (0, E.Sync_rmw, 6, Some 0, Some 1);
        (0, E.Data_write, 0, None, Some 1);
        (1, E.Sync_rmw, 6, Some 1, Some 1);  (* failed acquire *)
        (1, E.Data_write, 0, None, Some 2);
      ]
  in
  check "unprotected write caught" false (LS.obeys_monitors_model exn)

let test_different_locks_fail () =
  (* Consistent locking requires a COMMON lock.  Eraser-style checking
     ignores the very first thread's locks (the initialization pattern), so
     the inconsistency surfaces on the third round of accesses. *)
  let exn =
    X.build
      [
        (0, E.Sync_rmw, 6, Some 0, Some 1);
        (0, E.Data_write, 0, None, Some 1);
        (0, E.Sync_write, 6, None, Some 0);
        (1, E.Sync_rmw, 7, Some 0, Some 1);  (* a different lock *)
        (1, E.Data_write, 0, None, Some 2);
        (1, E.Sync_write, 7, None, Some 0);
        (0, E.Sync_rmw, 6, Some 0, Some 1);
        (0, E.Data_write, 0, None, Some 3);
        (0, E.Sync_write, 6, None, Some 0);
      ]
  in
  check "inconsistent locks caught" false (LS.obeys_monitors_model exn)

let test_lock_disciplined_programs_pass () =
  for seed = 1 to 8 do
    let program = Wo_synth.Synth.lock_disciplined ~seed ~procs:2 () in
    check
      (Printf.sprintf "program %d" seed)
      true
      (LS.check_program ~run:(run_ideal program) () = [])
  done

let test_flag_handoff_fails_but_is_drf0 () =
  (* The model boundary the paper's future work is about: flag-synchronized
     handoff (producer/consumer) obeys DRF0 but not the monitors model —
     the reused buffer is written after becoming shared, with no lock. *)
  let w = Wo_workload.Workload.producer_consumer ~items:2 ~work:1 () in
  let program = w.Wo_workload.Workload.program in
  let violations = LS.check_program ~run:(run_ideal program) () in
  check "handoff data not lock-protected" true (violations <> []);
  check "yet race-free under DRF0" true
    (Wo_race.Detector.sample_program ~schedules:5 ~run:(run_ideal program) ()
    = [])

let test_write_once_barrier_sharing_accepted () =
  (* per-round slots are written once and then only read: accepted, like
     Eraser's read-shared state *)
  let w = Wo_workload.Workload.spin_barrier ~procs:2 ~rounds:1 ~work:1 () in
  check "write-once sharing accepted" true
    (LS.check_program ~run:(run_ideal w.Wo_workload.Workload.program) () = [])

let test_racy_litmus_fails () =
  let program = Wo_litmus.Litmus.figure1.Wo_litmus.Litmus.program in
  check "figure1 flagged" true
    (LS.check_program ~run:(run_ideal program) () <> [])

let tests =
  [
    Alcotest.test_case "locked sharing" `Quick test_locked_passes;
    Alcotest.test_case "unlocked sharing" `Quick test_unlocked_fails;
    Alcotest.test_case "thread-local data" `Quick test_exclusive_locations_ok;
    Alcotest.test_case "read-shared data" `Quick test_read_shared_after_init_ok;
    Alcotest.test_case "failed TAS" `Quick test_failed_tas_is_not_an_acquire;
    Alcotest.test_case "inconsistent locks" `Quick test_different_locks_fail;
    Alcotest.test_case "lock-disciplined programs" `Quick
      test_lock_disciplined_programs_pass;
    Alcotest.test_case "handoff: DRF0 but not monitors" `Quick
      test_flag_handoff_fails_but_is_drf0;
    Alcotest.test_case "write-once sharing" `Quick
      test_write_once_barrier_sharing_accepted;
    Alcotest.test_case "racy litmus flagged" `Quick test_racy_litmus_fails;
  ]
