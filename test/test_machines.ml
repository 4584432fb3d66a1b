(* End-to-end machine tests: the Definition-2 contract, Figure-1
   violations, workload invariants, and ablation regressions. *)

module M = Wo_machines.Machine
module P = Wo_machines.Presets
module L = Wo_litmus.Litmus
module O = Wo_prog.Outcome

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let runs = 40

let run_many machine program =
  List.init runs (fun i -> M.run machine ~seed:(i + 1) program)

(* --- sequential consistency of the SC machines ------------------------------ *)

(* every loop-free litmus test, plus a warmed variant of each racy one
   (resident shared copies are the Figure-1 precondition for the cached
   machines to show anything) *)
let loop_free_tests =
  let base = List.filter (fun (t : L.t) -> not t.L.loops) L.all in
  let unwarmed (t : L.t) =
    String.length t.L.name < 7
    || String.sub t.L.name (String.length t.L.name - 7) 7 <> "-warmed"
  in
  let interleavings (t : L.t) =
    (* multinomial estimate of the idealized execution count *)
    let per_proc =
      Array.to_list t.L.program.Wo_prog.Program.threads
      |> List.map (fun instrs ->
             List.length
               (List.filter
                  (fun i ->
                    match (i : Wo_prog.Instr.t) with
                    | Read _ | Write _ | Sync_read _ | Sync_write _
                    | Test_and_set _ | Fetch_and_add _ ->
                      true
                    | Assign _ | If _ | While _ | Nop | Fence -> false)
                  instrs))
    in
    let ln_fact n =
      let acc = ref 0.0 in
      for i = 2 to n do
        acc := !acc +. log (float_of_int i)
      done;
      !acc
    in
    let total = List.fold_left ( + ) 0 per_proc in
    exp (ln_fact total -. List.fold_left (fun a n -> a +. ln_fact n) 0.0 per_proc)
  in
  base
  @ (List.filter (fun (t : L.t) -> (not t.L.drf0) && unwarmed t) base
    |> List.map L.warmed
    |> List.filter (fun t -> interleavings t < 300_000.0))

let test_sc_machines_stay_in_sc_set () =
  List.iter
    (fun (t : L.t) ->
      let sc = Wo_oracle.Enum_ref.outcomes t.L.program in
      List.iter
        (fun (m : M.t) ->
          List.iter
            (fun (r : M.result) ->
              check
                (Printf.sprintf "%s on %s" m.M.name t.L.name)
                true
                (List.exists (fun o -> O.compare o r.M.outcome = 0) sc))
            (run_many m t.L.program))
        P.sequentially_consistent)
    loop_free_tests

(* --- Figure-1 violations ------------------------------------------------------ *)

let find_violation machine test pred =
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 300 do
    incr seed;
    let r = M.run machine ~seed:!seed test.L.program in
    if pred r.M.outcome then found := true
  done;
  !found

let test_figure1_violations_occur () =
  check "bus write buffer violates" true
    (find_violation P.bus_nocache_wb L.figure1 L.both_killed);
  check "network without acks violates" true
    (find_violation P.net_nocache_weak L.figure1 L.both_killed);
  check "cached bus violates (warmed)" true
    (find_violation P.bus_cache_wb L.figure1_warmed L.both_killed);
  check "cached network violates (warmed)" true
    (find_violation P.net_cache_relaxed L.figure1_warmed L.both_killed)

let test_weak_machines_also_violate_with_races () =
  (* even the weakly ordered machines leave the SC set on racy programs *)
  check "wo-new violates on the racy warmed test" true
    (find_violation P.wo_new L.figure1_warmed L.both_killed);
  check "wo-old too" true
    (find_violation P.wo_old L.figure1_warmed L.both_killed)

(* --- the DRF0 contract --------------------------------------------------------- *)

let drf0_loop_free = [ L.dekker_sync; L.atomicity; L.sync_chain ]

let test_weakly_ordered_machines_appear_sc_on_drf0 () =
  List.iter
    (fun (t : L.t) ->
      let sc = Wo_oracle.Enum_ref.outcomes t.L.program in
      List.iter
        (fun (m : M.t) ->
          List.iter
            (fun (r : M.result) ->
              check
                (Printf.sprintf "%s on %s" m.M.name t.L.name)
                true
                (List.exists (fun o -> O.compare o r.M.outcome = 0) sc))
            (run_many m t.L.program))
        P.weakly_ordered)
    drf0_loop_free

let test_lemma1_oracle_on_drf0_litmus () =
  List.iter
    (fun (t : L.t) ->
      List.iter
        (fun (m : M.t) ->
          let rep = Wo_litmus.Runner.run ~runs:20 m t in
          check
            (Printf.sprintf "lemma1: %s on %s" m.M.name t.L.name)
            true
            (Wo_litmus.Runner.appears_sc rep))
        P.weakly_ordered)
    [ L.message_passing_sync; L.figure3_scenario (); L.dekker_sync ]

let test_atomicity_never_doubly_acquired () =
  let pred = List.assoc "both-acquired" L.atomicity.L.interesting in
  List.iter
    (fun (m : M.t) ->
      List.iter
        (fun (r : M.result) ->
          check (m.M.name ^ " atomicity") false (pred r.M.outcome))
        (run_many m L.atomicity.L.program))
    P.all

let test_universal_machine_properties () =
  (* Outcomes no machine in the zoo may ever produce, racy or not:
     per-location coherence (corr), read-modify-write atomicity, and
     load buffering (reads block every processor here). *)
  let cases =
    List.concat_map
      (fun t -> [ t; L.warmed t ])
      [ L.corr; L.load_buffering ]
  in
  List.iter
    (fun (t : L.t) ->
      List.iter
        (fun (m : M.t) ->
          List.iter
            (fun (r : M.result) ->
              List.iter
                (fun (name, pred) ->
                  check
                    (Printf.sprintf "%s.%s on %s" t.L.name name m.M.name)
                    false (pred r.M.outcome))
                t.L.interesting)
            (run_many m t.L.program))
        P.all)
    cases

let test_iriw_write_atomicity_everywhere () =
  (* Collier's write synchronization: no machine here forwards non-gp
     values to other processors, so IRIW never shows opposite orders. *)
  let pred = List.assoc "opposite-orders" L.iriw.L.interesting in
  List.iter
    (fun (m : M.t) ->
      List.iter
        (fun (r : M.result) ->
          check (m.M.name ^ " iriw") false (pred r.M.outcome))
        (run_many m L.iriw.L.program))
    P.all

(* --- workloads -------------------------------------------------------------- *)

let correct_machines =
  List.filter
    (fun (m : M.t) -> m.M.weakly_ordered_drf0 || m.M.sequentially_consistent)
    P.all

let test_workload_invariants () =
  List.iter
    (fun (w : Wo_workload.Workload.t) ->
      List.iter
        (fun (m : M.t) ->
          for seed = 1 to 5 do
            let r = M.run m ~seed w.Wo_workload.Workload.program in
            match w.Wo_workload.Workload.validate r.M.outcome with
            | Ok () -> ()
            | Error e ->
              Alcotest.fail
                (Printf.sprintf "%s on %s (seed %d): %s"
                   w.Wo_workload.Workload.name m.M.name seed e)
          done)
        correct_machines)
    Wo_workload.Workload.all

let test_random_lock_programs_run_everywhere () =
  List.iter
    (fun (m : M.t) ->
      for pseed = 1 to 5 do
        let program = Wo_synth.Synth.lock_disciplined ~seed:pseed () in
        let r = M.run m ~seed:pseed program in
        match
          M.check_lemma1 ~init:(Wo_prog.Program.initial_value program) r
        with
        | Ok () -> ()
        | Error _ ->
          Alcotest.fail
            (Printf.sprintf "lemma1 failed: %s pseed %d" m.M.name pseed)
      done)
    P.weakly_ordered

let test_writedone_crossing_completes () =
  (* Regression: an exclusive grant's WriteDone can still be in flight
     when the line is recalled away, re-requested, and granted again.
     The cache used to misread the old WriteDone as the new grant's
     early WriteDone and strand the first grant's waiters forever; these
     seeds deadlocked net-cache that way. *)
  List.iter
    (fun seed ->
      let program = Wo_synth.Synth.lock_disciplined ~seed () in
      List.iter
        (fun (m : M.t) -> ignore (M.run m ~seed program))
        Wo_machines.Presets.all)
    [ 82; 98; 109 ]

(* --- results plumbing --------------------------------------------------------- *)

let test_result_structure () =
  let r = M.run P.wo_new ~seed:1 L.message_passing_sync.L.program in
  check "cycles positive" true (r.M.cycles > 0);
  check_int "finish times per proc" 2 (Array.length r.M.proc_finish);
  check "all procs finished" true (Array.for_all (fun t -> t >= 0) r.M.proc_finish);
  check "trace non-empty" true (Wo_sim.Trace.size r.M.trace > 0);
  check "stats present" true (M.stats r <> []);
  (* every trace entry is fully timestamped and ordered *)
  List.iter
    (fun (e : Wo_sim.Trace.entry) ->
      check "issue <= commit" true (e.Wo_sim.Trace.issued <= e.Wo_sim.Trace.committed + 1000);
      check "gp >= 0" true (e.Wo_sim.Trace.performed >= 0))
    (Wo_sim.Trace.entries r.M.trace)

let test_determinism () =
  let a = M.run P.wo_new ~seed:11 L.figure1.L.program in
  let b = M.run P.wo_new ~seed:11 L.figure1.L.program in
  check "same seed, same outcome" true (O.compare a.M.outcome b.M.outcome = 0);
  check_int "same cycles" a.M.cycles b.M.cycles

let test_registry () =
  check "find known" true (P.find "wo-new" <> None);
  check "find unknown" true (P.find "nonexistent" = None);
  check_int "twelve presets" 12 (List.length P.all);
  check "names unique" true
    (List.length (List.sort_uniq compare (List.map (fun (m : M.t) -> m.M.name) P.all))
    = List.length P.all)

let test_stall_accounting () =
  let r = M.run P.wo_old ~seed:3 (L.figure3_scenario ()).L.program in
  check "stall totals accumulate" true (M.total_stalls r > 0);
  check "per-proc stalls sum below total" true
    (M.proc_stalls r ~proc:0 <= M.total_stalls r)

(* --- ablation regressions ------------------------------------------------------ *)

let test_ablated_machine_breaks_contract () =
  (* Without the reserve bit the figure3 scenario (DRF0) can read stale
     data under a jittery asymmetric network; found seeds are stable
     because the simulator is deterministic. *)
  let machine =
    Wo_machines.Coherent.make ~name:"ablated" ~description:""
      ~sequentially_consistent:false ~weakly_ordered_drf0:false
      {
        P.wo_new_config with
        Wo_machines.Coherent.cache =
          { Wo_cache.Cache_ctrl.default_config with reserve_enabled = false };
        fabric = Wo_machines.Coherent.Net { base = 2; jitter = 40 };
        slow_routes = [ ((3, 1), 8) ];
      }
  in
  let t = L.figure3_scenario ~work_before_unset:2 () in
  check "reserve ablation violates somewhere" true
    (find_violation machine t (fun o ->
         O.register o 1 Wo_prog.Names.r0 <> Some 1));
  (* the intact machine, same network, never does *)
  let intact =
    Wo_machines.Coherent.make ~name:"intact" ~description:""
      ~sequentially_consistent:false ~weakly_ordered_drf0:true
      {
        P.wo_new_config with
        Wo_machines.Coherent.fabric = Wo_machines.Coherent.Net { base = 2; jitter = 40 };
        slow_routes = [ ((3, 1), 8) ];
      }
  in
  let violations = ref 0 in
  for seed = 1 to 100 do
    let r = M.run intact ~seed t.L.program in
    if O.register r.M.outcome 1 Wo_prog.Names.r0 <> Some 1 then incr violations
  done;
  check_int "intact machine never violates" 0 !violations

let test_uncached_same_location_ordering () =
  (* Regression: fire-and-forget writes must not let later same-location
     reads/writes overtake (condition 1). *)
  let w = Wo_workload.Workload.sharded_counter ~procs:4 ~increments:10 () in
  List.iter
    (fun machine ->
      for seed = 1 to 5 do
        let r = M.run machine ~seed w.Wo_workload.Workload.program in
        match w.Wo_workload.Workload.validate r.M.outcome with
        | Ok () -> ()
        | Error e ->
          Alcotest.fail
            (Printf.sprintf "%s seed %d: %s" machine.M.name seed e)
      done)
    [ P.rp3_fence; P.bus_nocache_wb ]

(* A processor cannot stall for longer than it runs: each wait is
   charged once, to one reason.  On the cache-less backends a read or
   RMW that first waited for the write buffer (Buffer_drain) or for its
   own write to the location (Rmw_order) is charged from its send, not
   again from its issue.  Below, with sync treated as data, P0's
   TestAndSet first waits for its buffered write to x; P0 is charged
   what the fenced preset charges, within its 27-cycle run. *)
let test_cacheless_stalls_fit_the_run () =
  let module S = Wo_machines.Spec in
  let fits (m : M.t) name seed (r : M.result) =
    Array.iteri
      (fun p finish ->
        let stalls = M.proc_stalls r ~proc:p in
        if stalls > finish then
          Alcotest.failf "%s / %s / seed %d: P%d stalls %d > finish %d"
            m.M.name name seed p stalls finish)
      r.M.proc_finish
  in
  let t =
    Wo_litmus.Parse.of_string
      "name: rmw-after-buffered-write\n\
       P0: x := 1 ; r0 := tas(x) ; r1 := y\n\
       P1: y := 1 ; r2 := faa(y, 1)\n"
  in
  let sync_none = S.build { P.bus_nocache_wb_spec with S.sync = S.Sync_none } in
  let r = M.run sync_none ~seed:1 t.L.program in
  fits sync_none t.L.name 1 r;
  check_int "P0 charged as on the fenced preset"
    (M.proc_stalls (M.run P.bus_nocache_wb ~seed:1 t.L.program) ~proc:0)
    (M.proc_stalls r ~proc:0);
  check_int "P0 stall cycles" 24 (M.proc_stalls r ~proc:0);
  List.iter
    (fun (m : M.t) ->
      List.iter
        (fun (lt : L.t) ->
          for seed = 1 to 3 do
            fits m lt.L.name seed (M.run m ~seed lt.L.program)
          done)
        (t :: L.all))
    ([ sync_none; P.sc_bus_nocache; P.bus_nocache_wb; P.net_nocache_weak;
       P.net_nocache_rp3; P.rp3_fence ]
    @ P.models)

let test_coarse_counter_deadlocks_watermark_does_not () =
  (* Finding 1 of DESIGN.md, made executable.  The paper's literal
     accounting — "all reserve bits are reset when the counter reads
     zero" — lets two processors' reserve bits wait transitively on each
     other's stalled synchronization misses.  The per-synchronization
     watermark refinement (the footnote's "mechanism to distinguish
     accesses generated before a particular synchronization operation
     from those generated after") removes the cycle.  The program and
     seed below are a known deadlocking instance found by random search;
     determinism makes them a stable regression. *)
  let program =
    Wo_synth.Synth.lock_disciplined ~seed:4 ~procs:3
      ~sections_per_proc:4 ~locks:3 ~shared_locs:3 ()
  in
  let build ~coarse =
    Wo_machines.Coherent.make
      ~name:(if coarse then "wo-new-coarse" else "wo-new-watermark")
      ~description:"" ~sequentially_consistent:false ~weakly_ordered_drf0:true
      {
        P.wo_new_config with
        Wo_machines.Coherent.fabric =
          Wo_machines.Coherent.Net { base = 2; jitter = 20 };
        cache =
          {
            P.wo_new_config.Wo_machines.Coherent.cache with
            Wo_cache.Cache_ctrl.coarse_counter = coarse;
          };
      }
  in
  check "coarse counter deadlocks" true
    (try
       ignore (M.run (build ~coarse:true) ~seed:2 program);
       false
     with M.Machine_error _ -> true);
  let r = M.run (build ~coarse:false) ~seed:2 program in
  check "watermark accounting completes the same run" true
    (M.check_lemma1 ~init:(Wo_prog.Program.initial_value program) r = Ok ())

let test_process_migration () =
  (* Section 5.1's re-scheduling rule.  A thread whose write is still in
     flight migrates to another processor and immediately reads the same
     location: with the rule (wait until all previous accesses are
     globally performed) the dependency always holds; without it the read
     can reach the directory before the write and return stale data. *)
  let module I = Wo_prog.Instr in
  let program =
    Wo_prog.Program.make ~name:"migrate-raw"
      [ [ I.Write (0, I.Const 1); I.Read (0, 0) ] ]
  in
  let machine ~unsafe =
    Wo_machines.Coherent.make
      ~name:(if unsafe then "migrate-unsafe" else "migrate-safe")
      ~description:"" ~sequentially_consistent:false ~weakly_ordered_drf0:true
      {
        P.wo_new_config with
        Wo_machines.Coherent.fabric =
          Wo_machines.Coherent.Net { base = 2; jitter = 6 };
        slow_routes = [ ((0, 2), 10) ];
        migrations =
          [
            {
              Wo_machines.Coherent.thread = 0;
              before_seq = 1;
              to_cache = 1;
              unsafe;
            };
          ];
      }
  in
  let stale m =
    let n = ref 0 in
    for seed = 1 to 50 do
      let r = M.run m ~seed program in
      if O.register r.M.outcome 0 0 <> Some 1 then incr n
    done;
    !n
  in
  check_int "safe migration preserves the dependency" 0
    (stale (machine ~unsafe:false));
  check "unsafe migration loses it" true (stale (machine ~unsafe:true) > 0);
  (* a full DRF0 program migrating mid-spin stays correct *)
  let t = L.message_passing_sync in
  let m =
    Wo_machines.Coherent.make ~name:"migrate-mp" ~description:""
      ~sequentially_consistent:false ~weakly_ordered_drf0:true
      {
        P.wo_new_config with
        Wo_machines.Coherent.migrations =
          [
            {
              Wo_machines.Coherent.thread = 1;
              before_seq = 1;
              to_cache = 2;
              unsafe = false;
            };
          ];
      }
  in
  for seed = 1 to 20 do
    let r = M.run m ~seed t.L.program in
    check "consumer migrated and still reads 42" true
      (O.register r.M.outcome 1 Wo_prog.Names.r0 = Some 42);
    (match M.check_lemma1 r with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "lemma1 after migration");
    check "migration exercised" true
      (List.assoc_opt "machine.migrations" (M.stats r) = Some 1)
  done

let test_capacity_constrained_caches () =
  (* Tiny caches force constant evictions, write-backs and recall/eviction
     crossings; every invariant must still hold.  (This matrix caught four
     protocol bugs during development: absent-line recalls, capacity leaks
     of dead Invalid lines, recall-vs-refetch deadlock on evicting lines,
     and the deferred-invalidation-acknowledgement deadlock.) *)
  let with_capacity (config : Wo_machines.Coherent.config) cap name =
    Wo_machines.Coherent.make ~name ~description:""
      ~sequentially_consistent:false ~weakly_ordered_drf0:true
      {
        config with
        Wo_machines.Coherent.cache =
          { config.Wo_machines.Coherent.cache with
            Wo_cache.Cache_ctrl.capacity = Some cap };
      }
  in
  List.iter
    (fun (config, label) ->
      List.iter
        (fun cap ->
          let m = with_capacity config cap (Printf.sprintf "%s-cap%d" label cap) in
          List.iter
            (fun (w : Wo_workload.Workload.t) ->
              for seed = 1 to 3 do
                let r = M.run m ~seed w.Wo_workload.Workload.program in
                match w.Wo_workload.Workload.validate r.M.outcome with
                | Ok () -> ()
                | Error e ->
                  Alcotest.fail
                    (Printf.sprintf "%s cap=%d %s seed=%d: %s" label cap
                       w.Wo_workload.Workload.name seed e)
              done)
            Wo_workload.Workload.all)
        [ 2; 3 ])
    [
      (P.wo_new_config, "wo-new");
      (P.wo_old_config, "wo-old");
      (P.wo_new_drf1_config, "wo-new-drf1");
      (P.sc_dir_config, "sc-dir");
    ]

let test_ideal_machine () =
  let r = M.run P.ideal ~seed:2 L.figure1.L.program in
  let sc = Wo_oracle.Enum_ref.outcomes L.figure1.L.program in
  check "ideal outcome in SC set" true
    (List.exists (fun o -> O.compare o r.M.outcome = 0) sc);
  check_int "trace covers all ops" 4 (Wo_sim.Trace.size r.M.trace)

let tests =
  [
    Alcotest.test_case "SC machines stay in the SC set" `Slow
      test_sc_machines_stay_in_sc_set;
    Alcotest.test_case "figure-1 violations occur" `Quick
      test_figure1_violations_occur;
    Alcotest.test_case "weak machines violate on races" `Quick
      test_weak_machines_also_violate_with_races;
    Alcotest.test_case "DRF0 contract holds" `Slow
      test_weakly_ordered_machines_appear_sc_on_drf0;
    Alcotest.test_case "lemma1 oracle on spin litmus" `Slow
      test_lemma1_oracle_on_drf0_litmus;
    Alcotest.test_case "TAS atomicity everywhere" `Slow
      test_atomicity_never_doubly_acquired;
    Alcotest.test_case "IRIW write atomicity" `Slow
      test_iriw_write_atomicity_everywhere;
    Alcotest.test_case "universal machine properties" `Slow
      test_universal_machine_properties;
    Alcotest.test_case "workload invariants" `Slow test_workload_invariants;
    Alcotest.test_case "random lock programs" `Slow
      test_random_lock_programs_run_everywhere;
    Alcotest.test_case "crossing WriteDone completes" `Quick
      test_writedone_crossing_completes;
    Alcotest.test_case "result structure" `Quick test_result_structure;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "stall accounting" `Quick test_stall_accounting;
    Alcotest.test_case "ablation breaks the contract" `Slow
      test_ablated_machine_breaks_contract;
    Alcotest.test_case "uncached same-location ordering" `Quick
      test_uncached_same_location_ordering;
    Alcotest.test_case "cache-less stalls fit the run" `Quick
      test_cacheless_stalls_fit_the_run;
    Alcotest.test_case "coarse counter deadlock" `Quick
      test_coarse_counter_deadlocks_watermark_does_not;
    Alcotest.test_case "process migration" `Quick test_process_migration;
    Alcotest.test_case "capacity-constrained caches" `Slow
      test_capacity_constrained_caches;
    Alcotest.test_case "ideal machine" `Quick test_ideal_machine;
  ]
