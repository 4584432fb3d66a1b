(* Tests for the sequential-consistency witness search (Lamport's
   definition applied to finite executions). *)

module E = Wo_core.Event
module S = Wo_oracle.Sc
module X = Wo_core.Execution

let check = Alcotest.(check bool)

let mk ~id ~proc ~seq kind loc ?rv ?wv () =
  E.make ~id ~proc ~seq ~kind ~loc ?read_value:rv ?written_value:wv ()

(* Store buffering with the both-zero result: no witness exists. *)
let sb_both_zero =
  [
    [
      mk ~id:0 ~proc:0 ~seq:0 E.Data_write 0 ~wv:1 ();
      mk ~id:1 ~proc:0 ~seq:1 E.Data_read 1 ~rv:0 ();
    ];
    [
      mk ~id:2 ~proc:1 ~seq:0 E.Data_write 1 ~wv:1 ();
      mk ~id:3 ~proc:1 ~seq:1 E.Data_read 0 ~rv:0 ();
    ];
  ]

let test_sb_both_zero_impossible () =
  check "no SC witness for both-zero" true (S.witness sb_both_zero = None)

let sb_one_zero =
  [
    [
      mk ~id:0 ~proc:0 ~seq:0 E.Data_write 0 ~wv:1 ();
      mk ~id:1 ~proc:0 ~seq:1 E.Data_read 1 ~rv:0 ();
    ];
    [
      mk ~id:2 ~proc:1 ~seq:0 E.Data_write 1 ~wv:1 ();
      mk ~id:3 ~proc:1 ~seq:1 E.Data_read 0 ~rv:1 ();
    ];
  ]

let test_sb_one_zero_possible () =
  match S.witness sb_one_zero with
  | None -> Alcotest.fail "witness should exist"
  | Some order ->
    Alcotest.(check int) "witness covers all events" 4 (List.length order);
    (* program order preserved in the witness *)
    let pos id =
      let rec go i = function
        | [] -> -1
        | (e : E.t) :: rest -> if e.E.id = id then i else go (i + 1) rest
      in
      go 0 order
    in
    check "P0 order" true (pos 0 < pos 1);
    check "P1 order" true (pos 2 < pos 3);
    (* the read of x=1 must come after the write of x *)
    check "reads-from respected" true (pos 0 < pos 3)

let test_init_respected () =
  let threads = [ [ mk ~id:0 ~proc:0 ~seq:0 E.Data_read 0 ~rv:9 () ] ] in
  check "default init 0 rejects 9" true (S.witness threads = None);
  check "custom init accepts" true
    (S.witness ~init:(fun _ -> 9) threads <> None)

let test_expected_final () =
  let threads =
    [
      [ mk ~id:0 ~proc:0 ~seq:0 E.Data_write 0 ~wv:1 () ];
      [ mk ~id:1 ~proc:1 ~seq:0 E.Data_write 0 ~wv:2 () ];
    ]
  in
  check "final 1 reachable" true
    (S.witness ~expected_final:[ (0, 1) ] threads <> None);
  check "final 2 reachable" true
    (S.witness ~expected_final:[ (0, 2) ] threads <> None);
  check "final 3 unreachable" true
    (S.witness ~expected_final:[ (0, 3) ] threads = None)

let test_rmw_atomicity () =
  (* Two TestAndSets both reading 0 is not serializable. *)
  let tas id proc rv =
    mk ~id ~proc ~seq:0 E.Sync_rmw 0 ~rv ~wv:1 ()
  in
  check "both-zero TAS impossible" true
    (S.witness [ [ tas 0 0 0 ]; [ tas 1 1 0 ] ] = None);
  check "0 then 1 possible" true
    (S.witness [ [ tas 0 0 0 ]; [ tas 1 1 1 ] ] <> None)

let test_unconstrained_read () =
  (* A read with no recorded value matches anything. *)
  let threads =
    [ [ E.make ~id:0 ~proc:0 ~seq:0 ~kind:E.Data_read ~loc:0 () ] ]
  in
  check "unconstrained read" true (S.witness threads <> None)

let test_result_of_execution () =
  let exn =
    X.build
      [
        (0, E.Data_write, 0, None, Some 5);
        (1, E.Data_read, 0, Some 5, None);
      ]
  in
  let r = S.result_of_execution exn in
  Alcotest.(check (list (pair int int))) "final" [ (0, 5) ] r.S.final;
  Alcotest.(check int) "one read" 1 (List.length r.S.read_values);
  check "results compare equal to themselves" true (S.compare_result r r = 0)

let test_is_sequentially_consistent_on_ideal () =
  let program = Wo_litmus.Litmus.figure1.Wo_litmus.Litmus.program in
  let exn = Wo_oracle.Interp.execution (Wo_oracle.Interp.run_random ~seed:3 program) in
  check "idealized executions are SC" true (S.is_sequentially_consistent exn)

(* Property: every idealized execution of every random program passes the
   SC witness search (the idealized architecture is SC by construction,
   Section 1). *)
let prop_idealized_is_sc =
  QCheck.Test.make ~name:"idealized executions are sequentially consistent"
    ~count:60 QCheck.small_int (fun seed ->
      let program =
        Wo_synth.Synth.racy ~seed ~procs:2 ~ops_per_proc:4 ()
      in
      let exn = Wo_oracle.Interp.execution (Wo_oracle.Interp.run_random ~seed program) in
      S.is_sequentially_consistent exn)

let tests =
  [
    Alcotest.test_case "store buffering both-zero" `Quick
      test_sb_both_zero_impossible;
    Alcotest.test_case "store buffering one-zero" `Quick
      test_sb_one_zero_possible;
    Alcotest.test_case "initial values" `Quick test_init_respected;
    Alcotest.test_case "expected final memory" `Quick test_expected_final;
    Alcotest.test_case "read-modify-write atomicity" `Quick test_rmw_atomicity;
    Alcotest.test_case "unconstrained reads" `Quick test_unconstrained_read;
    Alcotest.test_case "result extraction" `Quick test_result_of_execution;
    Alcotest.test_case "idealized execution verifies" `Quick
      test_is_sequentially_consistent_on_ideal;
    QCheck_alcotest.to_alcotest prop_idealized_is_sc;
  ]
