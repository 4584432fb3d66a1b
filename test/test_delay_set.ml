(* Tests for the Shasha-Snir delay-set analysis and Fence enforcement. *)

module D = Wo_prog.Delay_set
module I = Wo_prog.Instr
module P = Wo_prog.Program
module L = Wo_litmus.Litmus
module M = Wo_machines.Machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let delay_pairs program =
  List.map
    (fun (d : D.delay) ->
      (d.D.dproc, d.D.before.D.position, d.D.after.D.position))
    (D.analyse program)

let test_store_buffering_delays () =
  Alcotest.(check (list (triple int int int)))
    "both W->R pairs delayed"
    [ (0, 0, 1); (1, 0, 1) ]
    (delay_pairs L.figure1.L.program)

let test_message_passing_delays () =
  Alcotest.(check (list (triple int int int)))
    "producer W->W and consumer R->R"
    [ (0, 0, 1); (1, 0, 1) ]
    (delay_pairs L.message_passing.L.program)

let test_iriw_writers_need_nothing () =
  let pairs = delay_pairs L.iriw.L.program in
  check "no delays in writer threads" true
    (List.for_all (fun (p, _, _) -> p >= 2) pairs);
  check_int "both readers delayed" 2 (List.length pairs)

let test_no_conflicts_no_delays () =
  let p =
    P.make [ [ I.Write (0, I.Const 1); I.Read (0, 0) ]; [ I.Write (1, I.Const 2) ] ]
  in
  check "disjoint locations: empty delay set" true (delay_pairs p = [])

let test_private_accesses_skipped () =
  (* an intervening private access must not add fences of its own *)
  let p =
    P.make
      [
        [ I.Write (0, I.Const 1); I.Write (9, I.Const 5); I.Read (1, 1) ];
        [ I.Write (1, I.Const 1); I.Read (0, 0) ];
      ]
  in
  let fences = D.fence_positions p in
  check_int "one fence per processor" 2 (List.length fences);
  (* a single fence anywhere between positions 0 and 2 of P0 suffices *)
  check "P0's fence is between the conflicting accesses" true
    (List.exists (fun (proc, g) -> proc = 0 && g >= 0 && g < 2) fences)

let test_fence_insertion_shape () =
  let fenced = D.insert_fences L.figure1.L.program in
  check "name tagged" true
    (fenced.P.name = "figure1+fences");
  Array.iter
    (fun instrs ->
      check_int "one fence inserted per thread" 3 (List.length instrs);
      check "fence in the middle" true (List.nth instrs 1 = I.Fence))
    fenced.P.threads

let test_unsupported_control_flow () =
  check "loops rejected" true
    (try
       ignore (D.analyse L.message_passing_sync.L.program);
       false
     with D.Unsupported _ -> true)

let test_fences_preserve_sc_outcomes () =
  (* fences are no-ops on the idealized architecture *)
  let program = L.figure1.L.program in
  let fenced = D.insert_fences program in
  let a = Wo_oracle.Enum_ref.outcomes program in
  let b = Wo_oracle.Enum_ref.outcomes fenced in
  check "same SC outcome sets" true (Wo_oracle.Enum_ref.outcome_sets_equal a b)

let test_fenced_figure1_is_sc_on_weak_machines () =
  let fenced = D.insert_fences L.figure1.L.program in
  List.iter
    (fun machine ->
      for seed = 1 to 60 do
        let r = M.run machine ~seed fenced in
        check
          (Printf.sprintf "%s seed %d" machine.M.name seed)
          false
          (L.both_killed r.M.outcome)
      done)
    Wo_machines.Presets.
      [ bus_nocache_wb; net_nocache_weak; bus_cache_wb; net_cache_relaxed ]

(* Soundness property: for random racy straight-line programs, the fenced
   program's outcomes on a weak machine always lie in the (unchanged) SC
   outcome set. *)
let prop_fencing_restores_sc =
  QCheck.Test.make ~name:"fenced random programs appear SC on weak hardware"
    ~count:25 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:4
          ~locs:2 ()
      in
      let sc = Wo_oracle.Enum_ref.outcomes program in
      let fenced = D.insert_fences program in
      List.for_all
        (fun seed ->
          let r =
            M.run Wo_machines.Presets.net_cache_relaxed ~seed fenced
          in
          List.exists
            (fun o -> Wo_prog.Outcome.compare o r.M.outcome = 0)
            sc)
        [ 1; 2; 3; 4; 5 ])

let prop_delays_subset_of_po_pairs =
  QCheck.Test.make ~name:"delays are program-ordered pairs" ~count:50
    QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:3 ~ops_per_proc:3 ()
      in
      List.for_all
        (fun (d : D.delay) ->
          d.D.before.D.proc = d.D.after.D.proc
          && d.D.before.D.position < d.D.after.D.position)
        (D.analyse program))

let tests =
  [
    Alcotest.test_case "store buffering" `Quick test_store_buffering_delays;
    Alcotest.test_case "message passing" `Quick test_message_passing_delays;
    Alcotest.test_case "IRIW writers unfenced" `Quick
      test_iriw_writers_need_nothing;
    Alcotest.test_case "no conflicts, no delays" `Quick
      test_no_conflicts_no_delays;
    Alcotest.test_case "private accesses skipped" `Quick
      test_private_accesses_skipped;
    Alcotest.test_case "fence insertion shape" `Quick test_fence_insertion_shape;
    Alcotest.test_case "control flow rejected" `Quick
      test_unsupported_control_flow;
    Alcotest.test_case "fences preserve SC outcomes" `Quick
      test_fences_preserve_sc_outcomes;
    Alcotest.test_case "fenced figure1 is SC everywhere" `Slow
      test_fenced_figure1_is_sc_on_weak_machines;
    QCheck_alcotest.to_alcotest prop_fencing_restores_sc;
    QCheck_alcotest.to_alcotest prop_delays_subset_of_po_pairs;
  ]
