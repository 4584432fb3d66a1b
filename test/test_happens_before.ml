(* Tests for Wo_core.Happens_before, including the paper's example chain
   and the DRF1 refinement of Section 6. *)

module E = Wo_core.Event
module X = Wo_core.Execution
module H = Wo_core.Happens_before
module R = Wo_core.Relation

let check = Alcotest.(check bool)

(* The paper's chain:
   op(P1,x) -po- S(P1,s) -so- S(P2,s) -po- S(P2,t) -so- S(P3,t) -po- op(P3,x)
   (processors renumbered from 0). *)
let chain =
  X.build
    [
      (0, E.Data_write, 0, None, Some 1);   (* 0: op(P0,x) *)
      (0, E.Sync_rmw, 6, Some 0, Some 1);   (* 1: S(P0,s) *)
      (1, E.Sync_rmw, 6, Some 1, Some 2);   (* 2: S(P1,s) *)
      (1, E.Sync_rmw, 7, Some 0, Some 1);   (* 3: S(P1,t) *)
      (2, E.Sync_rmw, 7, Some 1, Some 2);   (* 4: S(P2,t) *)
      (2, E.Data_read, 0, Some 1, None);    (* 5: op(P2,x) *)
    ]

let test_paper_chain () =
  let hb = H.of_execution chain in
  check "op(P0,x) hb op(P2,x)" true (H.ordered hb 0 5);
  check "not ordered the other way" false (H.ordered hb 5 0);
  check "orders sees both directions" true (H.orders hb 0 5)

let test_no_ordering_without_sync () =
  let exn =
    X.build
      [
        (0, E.Data_write, 0, None, Some 1);
        (1, E.Data_read, 0, Some 1, None);
      ]
  in
  let hb = H.of_execution exn in
  check "conflicting accesses unordered without synchronization" false
    (H.orders hb 0 1)

let test_po_is_in_hb () =
  let hb = H.of_execution chain in
  check "po pairs included" true (H.ordered hb 0 1);
  check "po transitively" true (H.ordered hb 2 3)

let test_partial_order () =
  check "hb of an execution is a partial order" true
    (H.is_partial_order (H.of_execution chain))

let test_of_relations_cycle () =
  let po = R.of_list [ (0, 1) ] and so = R.of_list [ (1, 0) ] in
  check "cyclic union is not a partial order" false
    (H.is_partial_order (H.of_relations ~po ~so))

(* DRF1 (Section 6): a read-only synchronization operation cannot order
   the issuing processor's previous accesses for other processors. *)
let release_by_test =
  X.build
    [
      (0, E.Data_write, 0, None, Some 1);   (* 0: W(P0,x) *)
      (0, E.Sync_read, 6, Some 0, None);    (* 1: Test(P0,s) -- not a release *)
      (1, E.Sync_rmw, 6, Some 0, Some 1);   (* 2: TAS(P1,s) *)
      (1, E.Data_read, 0, Some 1, None);    (* 3: R(P1,x) *)
    ]

let test_drf1_read_only_sync_is_not_a_release () =
  let drf0 = H.of_execution release_by_test in
  let drf1 = H.of_execution_drf1 release_by_test in
  check "DRF0 orders through the Test" true (H.ordered drf0 0 3);
  check "DRF1 does not" false (H.ordered drf1 0 3)

let release_by_unset =
  X.build
    [
      (0, E.Data_write, 0, None, Some 1);   (* 0 *)
      (0, E.Sync_write, 6, None, Some 1);   (* 1: Unset-like release *)
      (1, E.Sync_read, 6, Some 1, None);    (* 2: Test acquire *)
      (1, E.Data_read, 0, Some 1, None);    (* 3 *)
    ]

let test_drf1_write_to_read_is_an_edge () =
  let drf1 = H.of_execution_drf1 release_by_unset in
  check "release->acquire ordered under DRF1" true (H.ordered drf1 0 3)

let test_drf1_chain_through_intermediate_read () =
  (* Dropping an intermediate read-only synchronization must not break the
     write->...->read chain between the releases around it. *)
  let exn =
    X.build
      [
        (0, E.Sync_write, 6, None, Some 1);  (* 0: release *)
        (1, E.Sync_read, 6, Some 1, None);   (* 1: read-only in between *)
        (2, E.Sync_read, 6, Some 1, None);   (* 2: acquire *)
      ]
  in
  let drf1 = H.of_execution_drf1 exn in
  check "release reaches later acquire past the intermediate read" true
    (H.ordered drf1 0 2)

let test_drf1_subset_of_drf0 () =
  List.iter
    (fun exn ->
      let d0 = H.relation (H.of_execution exn) in
      let d1 = H.relation (H.of_execution_drf1 exn) in
      check "drf1 hb is a subset of drf0 hb" true
        (List.for_all (fun (a, b) -> R.mem a b d0) (R.pairs d1)))
    [ chain; release_by_test; release_by_unset ]

let test_last_write_before () =
  let hb = H.of_execution chain in
  let read = X.find chain 5 in
  (match H.last_write_before hb ~events:(X.events chain) read with
  | Some w -> Alcotest.(check int) "the write of x" 0 w.E.id
  | None -> Alcotest.fail "expected a last write");
  (* no write before event 0 *)
  let w0 = X.find chain 0 in
  check "no write before the first write" true
    (H.last_write_before hb ~events:(X.events chain) w0 = None)

(* Property: hb of any idealized execution of a random program is a strict
   partial order, and contains program order. *)
let arbitrary_execution =
  QCheck.(
    map
      (fun seed ->
        let program = Wo_synth.Synth.racy ~seed ~procs:3 ~ops_per_proc:4 () in
        Wo_oracle.Interp.execution (Wo_oracle.Interp.run_random ~seed program))
      small_int)

let prop_hb_partial_order =
  QCheck.Test.make ~name:"hb of idealized executions is a partial order"
    ~count:100 arbitrary_execution (fun exn ->
      H.is_partial_order (H.of_execution exn))

let prop_hb_contains_po =
  QCheck.Test.make ~name:"hb contains program order" ~count:100
    arbitrary_execution (fun exn ->
      let hb = H.of_execution exn in
      List.for_all
        (fun (a, b) -> H.ordered hb a b)
        (R.pairs (X.program_order exn)))

let tests =
  [
    Alcotest.test_case "the paper's hb chain" `Quick test_paper_chain;
    Alcotest.test_case "no ordering without sync" `Quick
      test_no_ordering_without_sync;
    Alcotest.test_case "po included" `Quick test_po_is_in_hb;
    Alcotest.test_case "partial order" `Quick test_partial_order;
    Alcotest.test_case "cyclic relations detected" `Quick test_of_relations_cycle;
    Alcotest.test_case "drf1: Test is not a release" `Quick
      test_drf1_read_only_sync_is_not_a_release;
    Alcotest.test_case "drf1: Unset->Test is an edge" `Quick
      test_drf1_write_to_read_is_an_edge;
    Alcotest.test_case "drf1: chains survive intermediate reads" `Quick
      test_drf1_chain_through_intermediate_read;
    Alcotest.test_case "drf1 hb subset of drf0 hb" `Quick test_drf1_subset_of_drf0;
    Alcotest.test_case "last_write_before" `Quick test_last_write_before;
    QCheck_alcotest.to_alcotest prop_hb_partial_order;
    QCheck_alcotest.to_alcotest prop_hb_contains_po;
  ]
