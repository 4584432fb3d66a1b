(* Tests for the DRF0 checker (Definition 3), including the Figure-2
   executions. *)

module E = Wo_core.Event
module X = Wo_core.Execution
module D = Wo_core.Drf0

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_figure2a () =
  check "figure 2(a) obeys DRF0" true (D.obeys Wo_litmus.Figure2.execution_a)

let test_figure2b () =
  let races = D.races Wo_litmus.Figure2.execution_b in
  check_int "figure 2(b) race count" Wo_litmus.Figure2.expected_races_b
    (List.length races);
  (* the caption's named conflicts are among them *)
  let has ~k1 ~k2 ~loc =
    List.exists
      (fun { D.e1; e2 } ->
        e1.E.loc = loc && e2.E.loc = loc
        && ((e1.E.kind = k1 && e2.E.kind = k2)
           || (e1.E.kind = k2 && e2.E.kind = k1)))
      races
  in
  check "P0/P1 conflict on x reported" true
    (has ~k1:E.Data_read ~k2:E.Data_write ~loc:0);
  check "P2/P4 write-write conflict on y reported" true
    (has ~k1:E.Data_write ~k2:E.Data_write ~loc:1)

let test_same_processor_conflicts_never_race () =
  let exn =
    X.build
      [ (0, E.Data_write, 0, None, Some 1); (0, E.Data_write, 0, None, Some 2) ]
  in
  check "po orders same-processor conflicts" true (D.obeys exn)

let test_sync_ordered_conflict_is_no_race () =
  let exn =
    X.build
      [
        (0, E.Data_write, 0, None, Some 1);
        (0, E.Sync_write, 6, None, Some 1);
        (1, E.Sync_read, 6, Some 1, None);
        (1, E.Data_read, 0, Some 1, None);
      ]
  in
  check "properly synchronized" true (D.obeys exn)

let test_unsynchronized_conflict_races () =
  let exn =
    X.build
      [ (0, E.Data_write, 0, None, Some 1); (1, E.Data_read, 0, Some 1, None) ]
  in
  check "racy" false (D.obeys exn);
  check_int "exactly one race" 1 (List.length (D.races exn))

let test_sync_sync_never_races () =
  let exn =
    X.build
      [
        (0, E.Sync_rmw, 6, Some 0, Some 1);
        (1, E.Sync_rmw, 6, Some 1, Some 1);
        (2, E.Sync_write, 6, None, Some 0);
      ]
  in
  check "same-location syncs are so-ordered" true (D.obeys exn)

let test_augmentation_does_not_invent_races () =
  (* A single-processor program conflicts with nothing; the hypothetical
     initializing/final operations must not introduce races. *)
  let exn =
    X.build
      [ (0, E.Data_write, 0, None, Some 3); (0, E.Data_read, 0, Some 3, None) ]
  in
  check "no races with augmentation" true (D.obeys ~augment:true exn);
  check "none without either" true (D.obeys ~augment:false exn)

let test_augment_flag () =
  (* Reads of different locations by different processors: race-free either
     way, but the augmented execution contains the virtual processor. *)
  let report = D.check Wo_litmus.Figure2.execution_b in
  check "report execution is augmented" true
    (X.is_augmented report.D.execution)

let test_drf1_model_reports_more_races () =
  (* Release by a read-only synchronization: race-free under DRF0, racy
     under DRF1 (Section 6's point: DRF1 constrains software slightly more
     in exchange for cheaper Tests). *)
  let exn =
    X.build
      [
        (0, E.Data_write, 0, None, Some 1);
        (0, E.Sync_read, 6, Some 0, None);
        (1, E.Sync_rmw, 6, Some 0, Some 1);
        (1, E.Data_read, 0, Some 1, None);
      ]
  in
  check "DRF0 accepts" true (D.obeys exn);
  check "DRF1 rejects" false (D.obeys ~model:Wo_core.Sync_model.drf1 exn)

let test_program_obeys () =
  let sb = Wo_litmus.Litmus.figure1.Wo_litmus.Litmus.program in
  (match D.program_obeys (Wo_oracle.Enum_ref.executions sb) with
  | Ok () -> Alcotest.fail "figure1 is racy"
  | Error report -> check "found races" true (report.D.races <> []));
  let ds = Wo_litmus.Litmus.dekker_sync.Wo_litmus.Litmus.program in
  match D.program_obeys (Wo_oracle.Enum_ref.executions ds) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "dekker-sync obeys DRF0"

let test_race_endpoints_ordered () =
  List.iter
    (fun { D.e1; e2 } ->
      check "e1 precedes e2 in execution order" true (e1.E.id < e2.E.id)
      (* ids are assigned in execution order by Execution.build *))
    (D.races Wo_litmus.Figure2.execution_b)

(* Property: an execution where every operation is a synchronization
   operation is always DRF0 (same-location syncs are so-ordered; different
   locations never conflict). *)
let prop_all_sync_is_drf0 =
  let gen =
    QCheck.(
      list_of_size Gen.(1 -- 12)
        (pair (0 -- 2) (0 -- 2)))
  in
  QCheck.Test.make ~name:"all-synchronization executions obey DRF0" ~count:200
    gen (fun specs ->
      let exn =
        X.build
          (List.map
             (fun (p, loc) -> (p, E.Sync_rmw, loc, Some 0, Some 1))
             specs)
      in
      D.obeys exn)

(* Property: removing the only synchronization between two conflicting
   accesses creates a race. *)
let prop_conflicts_need_ordering =
  QCheck.Test.make ~name:"unordered cross-processor conflicts race" ~count:100
    QCheck.(pair (0 -- 2) (0 -- 2))
    (fun (l1, l2) ->
      let exn =
        X.build
          [
            (0, E.Data_write, l1, None, Some 1);
            (1, E.Data_write, l2, None, Some 2);
          ]
      in
      D.obeys exn = (l1 <> l2))

let tests =
  [
    Alcotest.test_case "figure 2(a)" `Quick test_figure2a;
    Alcotest.test_case "figure 2(b)" `Quick test_figure2b;
    Alcotest.test_case "same-processor conflicts" `Quick
      test_same_processor_conflicts_never_race;
    Alcotest.test_case "synchronized conflict" `Quick
      test_sync_ordered_conflict_is_no_race;
    Alcotest.test_case "unsynchronized conflict" `Quick
      test_unsynchronized_conflict_races;
    Alcotest.test_case "sync-sync pairs" `Quick test_sync_sync_never_races;
    Alcotest.test_case "augmentation invents no races" `Quick
      test_augmentation_does_not_invent_races;
    Alcotest.test_case "check reports augmented execution" `Quick
      test_augment_flag;
    Alcotest.test_case "DRF1 is stricter on software" `Quick
      test_drf1_model_reports_more_races;
    Alcotest.test_case "program_obeys over enumeration" `Quick
      test_program_obeys;
    Alcotest.test_case "race endpoints ordered" `Quick
      test_race_endpoints_ordered;
    QCheck_alcotest.to_alcotest prop_all_sync_is_drf0;
    QCheck_alcotest.to_alcotest prop_conflicts_need_ordering;
  ]
