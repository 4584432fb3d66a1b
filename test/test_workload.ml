(* Tests for the workload generators: invariants on the reference
   interpreter, race-freedom by sampling, and validator behaviour. *)

module W = Wo_workload.Workload
module In = Wo_oracle.Interp

let check = Alcotest.(check bool)

let validate_on_ideal (w : W.t) seed =
  let o = In.outcome (In.run_random ~seed w.W.program) in
  w.W.validate o

let test_all_validate_on_ideal () =
  List.iter
    (fun (w : W.t) ->
      for seed = 1 to 10 do
        match validate_on_ideal w seed with
        | Ok () -> ()
        | Error e ->
          Alcotest.fail (Printf.sprintf "%s seed %d: %s" w.W.name seed e)
      done)
    W.all

let test_all_race_free_by_sampling () =
  List.iter
    (fun (w : W.t) ->
      check (w.W.name ^ " race-free") true
        (Test_race.sampled_races w.W.program = []))
    W.all

let test_parameterized_instances () =
  let cases =
    [
      W.critical_section ~procs:2 ~sections:2 ~work:1 ();
      W.critical_section ~procs:3 ~sections:2 ~use_ttas:true ();
      W.spin_barrier ~procs:2 ~rounds:2 ~work:1 ();
      W.spin_barrier ~procs:5 ~rounds:1 ~work:0 ();
      W.producer_consumer ~items:2 ~work:0 ();
      W.producer_consumer ~items:3 ~batch:4 ();
      W.sharded_counter ~procs:2 ~increments:3 ();
    ]
  in
  List.iter
    (fun (w : W.t) ->
      match validate_on_ideal w 7 with
      | Ok () -> ()
      | Error e -> Alcotest.fail (w.W.program.Wo_prog.Program.name ^ ": " ^ e))
    cases

let test_validator_rejects_wrong_outcomes () =
  let w = W.critical_section ~procs:2 ~sections:2 () in
  let bad = Wo_prog.Outcome.make ~registers:[] ~memory:[ (1, 3) ] in
  check "wrong counter rejected" true (w.W.validate bad <> Ok ());
  let missing = Wo_prog.Outcome.make ~registers:[] ~memory:[] in
  check "missing location rejected" true (w.W.validate missing <> Ok ())

(* --- sweep driver ---------------------------------------------------------- *)

let test_program_key_survives_digest_collision () =
  let module S = Wo_workload.Sweep in
  let pa = Wo_litmus.Litmus.figure1.Wo_litmus.Litmus.program in
  let pb = Wo_litmus.Litmus.dekker_sync.Wo_litmus.Litmus.program in
  let ka = S.program_key pa and kb = S.program_key pb in
  check "distinct programs get distinct keys" false (ka = kb);
  let table = [ (ka, "outcomes of pa") ] in
  check "honest lookup hits" true (S.find_keyed ka table = Some "outcomes of pa");
  check "honest miss" true (S.find_keyed kb table = None);
  (* Forge the collision Digest.string cannot be made to produce on demand:
     a different program whose key carries pa's digest.  The full-payload
     comparison must refuse to hand pb pa's memoized SC outcome set. *)
  let forged = { kb with S.pk_digest = ka.S.pk_digest } in
  check "digest collision does not alias" true (S.find_keyed forged table = None)

let test_parallel_map_propagates_exceptions () =
  let module S = Wo_workload.Sweep in
  let items = List.init 20 (fun i -> i) in
  check "exception surfaces instead of Option.get crash" true
    (try
       ignore
         (S.parallel_map ~domains:4
            (fun i -> if i = 11 then failwith "cell blew up" else i)
            items);
       false
     with Failure m -> m = "cell blew up");
  (* And deterministically so: same failure on every repetition. *)
  for _ = 1 to 5 do
    match
      S.parallel_map ~domains:3
        (fun i -> if i mod 7 = 3 then raise Exit else i)
        items
    with
    | _ -> Alcotest.fail "expected Exit"
    | exception Exit -> ()
  done

let test_campaign_sc_sets_match_tree_enumeration () =
  (* The campaign's SC memo runs the stateful enumerator; every memoized
     set must equal a direct tree enumeration of its program. *)
  let module S = Wo_workload.Sweep in
  let module C = Wo_campaign.Campaign in
  let tests =
    [ Wo_litmus.Litmus.figure1; Wo_litmus.Litmus.message_passing ]
  in
  let config =
    { (C.default_config ~store_path:"") with C.runs = 4; domains = Some 2 }
  in
  let plan =
    C.plan config
      ~specs:[ Option.get (Wo_machines.Presets.spec_of "sc-dir") ]
      ~cases:(List.map C.case_of_litmus tests)
  in
  let settled = C.settle_all config plan in
  check "all cells ran" true
    (Array.length settled.C.s_verdicts = List.length tests);
  check "one SC set per program" true
    (settled.C.s_sc_sets = List.length tests);
  List.iter
    (fun (t : Wo_litmus.Litmus.t) ->
      let direct = Wo_oracle.Enum_ref.outcomes t.Wo_litmus.Litmus.program in
      match
        S.Key_tbl.find settled.C.s_sc (S.program_key t.Wo_litmus.Litmus.program)
      with
      | None -> Alcotest.failf "%s: no memoized SC set" t.Wo_litmus.Litmus.name
      | Some via_campaign ->
        check
          (t.Wo_litmus.Litmus.name ^ " SC set matches tree enumeration")
          true
          (Wo_oracle.Enum_ref.outcome_sets_equal direct via_campaign))
    tests;
  Array.iter
    (fun (v : C.verdict) -> check "sc-dir appears SC" true v.C.v_appears_sc)
    settled.C.s_verdicts

let test_workload_programs_have_loops () =
  (* every workload synchronizes by spinning somewhere *)
  List.iter
    (fun (w : W.t) ->
      check (w.W.name ^ " spins") true
        (Wo_prog.Program.has_loops w.W.program))
    W.all

let tests =
  [
    Alcotest.test_case "validate on the idealized machine" `Quick
      test_all_validate_on_ideal;
    Alcotest.test_case "race-free by sampling" `Quick
      test_all_race_free_by_sampling;
    Alcotest.test_case "parameterized instances" `Quick
      test_parameterized_instances;
    Alcotest.test_case "validator rejects bad outcomes" `Quick
      test_validator_rejects_wrong_outcomes;
    Alcotest.test_case "workloads spin" `Quick test_workload_programs_have_loops;
    Alcotest.test_case "program_key survives digest collisions" `Quick
      test_program_key_survives_digest_collision;
    Alcotest.test_case "parallel_map propagates exceptions" `Quick
      test_parallel_map_propagates_exceptions;
    Alcotest.test_case "campaign SC sets match tree enumeration" `Quick
      test_campaign_sc_sets_match_tree_enumeration;
  ]
