(* Tests for the Lemma-1 oracle (Appendix A). *)

module E = Wo_core.Event
module L = Wo_core.Lemma1
module R = Wo_core.Relation

let check = Alcotest.(check bool)

let mk ~id ~proc ~seq kind loc ?rv ?wv () =
  E.make ~id ~proc ~seq ~kind ~loc ?read_value:rv ?written_value:wv ()

(* Synchronized handoff: W(x)=1; Su(s)=1 || Test(s)=1; R(x)=1. *)
let good_events =
  [
    mk ~id:0 ~proc:0 ~seq:0 E.Data_write 0 ~wv:1 ();
    mk ~id:1 ~proc:0 ~seq:1 E.Sync_write 6 ~wv:1 ();
    mk ~id:2 ~proc:1 ~seq:0 E.Sync_read 6 ~rv:1 ();
    mk ~id:3 ~proc:1 ~seq:1 E.Data_read 0 ~rv:1 ();
  ]

let po = R.of_list [ (0, 1); (2, 3) ]
let so = R.of_list [ (1, 2) ]

let test_good_trace_passes () =
  match L.check ~events:good_events ~po ~so () with
  | Ok () -> ()
  | Error vs ->
    Alcotest.fail
      (Format.asprintf "unexpected violations: %a"
         (Format.pp_print_list L.pp_violation)
         vs)

let test_stale_read_detected () =
  let bad =
    List.map
      (fun (e : E.t) ->
        if e.E.id = 3 then
          mk ~id:3 ~proc:1 ~seq:1 E.Data_read 0 ~rv:0 () (* stale! *)
        else e)
      good_events
  in
  match L.check ~events:bad ~po ~so () with
  | Ok () -> Alcotest.fail "stale read should fail"
  | Error vs ->
    check "read-not-last-write reported" true
      (List.exists
         (function
           | L.Read_not_last_write { expected = 1; got = 0; _ } -> true
           | _ -> false)
         vs)

let test_unordered_conflict_detected () =
  let events =
    [
      mk ~id:0 ~proc:0 ~seq:0 E.Data_write 0 ~wv:1 ();
      mk ~id:1 ~proc:1 ~seq:0 E.Data_read 0 ~rv:1 ();
    ]
  in
  match L.check ~events ~po:R.empty ~so:R.empty () with
  | Ok () -> Alcotest.fail "race should fail"
  | Error vs ->
    check "unordered conflict reported" true
      (List.exists
         (function L.Unordered_conflict _ -> true | _ -> false)
         vs)

let test_cyclic_orders_detected () =
  let events =
    [
      mk ~id:0 ~proc:0 ~seq:0 E.Sync_write 6 ~wv:1 ();
      mk ~id:1 ~proc:1 ~seq:0 E.Sync_write 6 ~wv:2 ();
    ]
  in
  let cyclic_so = R.of_list [ (0, 1); (1, 0) ] in
  match L.check ~events ~po:R.empty ~so:cyclic_so () with
  | Error [ L.Cyclic_orders ] -> ()
  | Ok () | Error _ -> Alcotest.fail "expected Cyclic_orders"

let test_init_respected () =
  let events = [ mk ~id:0 ~proc:0 ~seq:0 E.Data_read 0 ~rv:7 () ] in
  (match L.check ~events ~po:R.empty ~so:R.empty () with
  | Ok () -> Alcotest.fail "initial value defaults to 0"
  | Error _ -> ());
  match L.check ~init:(fun _ -> 7) ~events ~po:R.empty ~so:R.empty () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "custom initial value should pass"

let test_check_execution_idealized () =
  (* Every idealized execution of a DRF0 program satisfies Lemma 1. *)
  let program = Wo_litmus.Litmus.dekker_sync.Wo_litmus.Litmus.program in
  for seed = 1 to 10 do
    let exn =
      Wo_oracle.Interp.execution (Wo_oracle.Interp.run_random ~seed program)
    in
    match L.check_execution exn with
    | Ok () -> ()
    | Error vs ->
      Alcotest.fail
        (Format.asprintf "seed %d: %a" seed
           (Format.pp_print_list L.pp_violation)
           vs)
  done

let test_machine_traces_of_drf0_program () =
  (* The oracle accepts wo-new traces of a DRF0 litmus and rejects a
     doctored trace. *)
  let t = Wo_litmus.Litmus.message_passing_sync in
  let r =
    Wo_machines.Machine.run Wo_machines.Presets.wo_new ~seed:5
      t.Wo_litmus.Litmus.program
  in
  (match Wo_machines.Machine.check_lemma1 r with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "wo-new trace should satisfy Lemma 1")

let prop_ideal_drf0_traces_pass =
  QCheck.Test.make ~name:"lemma1 holds on idealized DRF0 executions"
    ~count:40 QCheck.small_int (fun seed ->
      let program =
        Wo_synth.Synth.lock_disciplined ~seed ~procs:2
          ~sections_per_proc:2 ()
      in
      let exn =
        Wo_oracle.Interp.execution (Wo_oracle.Interp.run_random ~seed program)
      in
      L.check_execution exn = Ok ())

let tests =
  [
    Alcotest.test_case "good trace passes" `Quick test_good_trace_passes;
    Alcotest.test_case "stale read detected" `Quick test_stale_read_detected;
    Alcotest.test_case "unordered conflict detected" `Quick
      test_unordered_conflict_detected;
    Alcotest.test_case "cyclic orders detected" `Quick
      test_cyclic_orders_detected;
    Alcotest.test_case "initial values" `Quick test_init_respected;
    Alcotest.test_case "idealized executions pass" `Quick
      test_check_execution_idealized;
    Alcotest.test_case "machine traces pass" `Quick
      test_machine_traces_of_drf0_program;
    QCheck_alcotest.to_alcotest prop_ideal_drf0_traces_pass;
  ]
