(* Lockstep tests for the compiled machine path (DESIGN.md: machine
   engine).  The compiled frontend and the reusable sessions are pure
   performance mechanisms: every result they produce must be
   byte-identical — same Marshal fingerprint of the full [Machine.result]
   — to a fresh-construction AST run, the oracle the rest of the suite
   already trusts.  Fingerprinting the whole record (outcome, trace,
   cycles, per-proc finish times, stats, stalls, taps) means a divergence
   anywhere in the observable record fails, not just in the outcome. *)

module M = Wo_machines.Machine
module L = Wo_litmus.Litmus
module P = Wo_machines.Presets
module Sweep = Wo_workload.Sweep

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* [Closures] tolerates the rare [Rmw_fn] payload in a trace; for the
   catalogued and synthesized programs (descriptor RMWs only) the flag
   is inert and the fingerprint is a pure function of the data. *)
let fingerprint (r : M.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.Closures ]))

let fresh_fp machine ~seed program = fingerprint (M.run machine ~seed program)

(* 1. Every catalogued litmus test, on every preset, at several seeds:
   a compiled session's results are fingerprint-identical to fresh AST
   runs.  This is the complete product, not a sample — it is what lets
   the litmus harness default to compiled sessions. *)
let test_compiled_session_matches_fresh_ast () =
  List.iter
    (fun (machine : M.t) ->
      let session = M.new_session machine M.Compiled in
      List.iter
        (fun (t : L.t) ->
          for seed = 1 to 3 do
            let got =
              fingerprint (M.session_run session ~seed t.L.program)
            in
            let want = fresh_fp machine ~seed t.L.program in
            if got <> want then
              Alcotest.failf "%s / %s / seed %d: compiled <> fresh AST"
                machine.M.name t.L.name seed
          done)
        L.all)
    P.all

(* 2. The same lockstep over random programs — racy (unsynchronized) and
   lock-disciplined (spin loops, so the compiled jump resolution and the
   RMW fast path are exercised hard). *)
let prop_random_programs_lockstep =
  QCheck.Test.make ~name:"compiled session = fresh AST on random programs"
    ~count:25 QCheck.small_int (fun seed ->
      let programs =
        [
          Wo_synth.Synth.racy ~seed ~procs:3 ~ops_per_proc:4 ~locs:3 ();
          Wo_synth.Synth.lock_disciplined ~seed ~procs:2
            ~sections_per_proc:2 ~locks:2 ~shared_locs:2 ();
        ]
      in
      List.for_all
        (fun (machine : M.t) ->
          let session = M.new_session machine M.Compiled in
          List.for_all
            (fun program ->
              fingerprint (M.session_run session ~seed:(seed + 1) program)
              = fresh_fp machine ~seed:(seed + 1) program)
            programs)
        [ P.wo_new; P.sc_dir ])

(* 3. Session reuse across interleaved programs and repeated seeds: the
   in-place reset must leave no residue — rerunning an earlier (program,
   seed) pair through a much-reused session reproduces its bytes. *)
let test_session_reset_no_residue () =
  List.iter
    (fun engine ->
      let machine = P.wo_new in
      let session = M.new_session machine engine in
      let t1 = L.dekker_sync and t2 = L.figure1 in
      let first = fingerprint (M.session_run session ~seed:7 t1.L.program) in
      (* churn: different programs (different proc counts force a
         rebuild), different seeds *)
      ignore (M.session_run session ~seed:3 t2.L.program);
      ignore (M.session_run session ~seed:9 t1.L.program);
      ignore (M.session_run session ~seed:4 t2.L.program);
      let again = fingerprint (M.session_run session ~seed:7 t1.L.program) in
      check
        (Printf.sprintf "reused session reproduces (%s)" (M.engine_name engine))
        true
        (first = again && first = fresh_fp machine ~seed:7 t1.L.program))
    [ M.Compiled; M.Ast ]

(* The coarse-counter variant of wo-new, on a chosen fabric. *)
let coarse_machine fabric =
  Wo_machines.Coherent.make ~name:"machpath-coarse" ~description:""
    ~sequentially_consistent:false ~weakly_ordered_drf0:true
    {
      P.wo_new_config with
      Wo_machines.Coherent.fabric;
      cache =
        {
          P.wo_new_config.Wo_machines.Coherent.cache with
          Wo_cache.Cache_ctrl.coarse_counter = true;
        };
    }

(* 4. A [Machine_error] mid-batch must not poison the session: the
   watchdog abandons a run with parked closures and half-filled state,
   and the start-of-run reset has to clear all of it.  The deadlocking
   (program, seed) pair is the known instance from the coarse-counter
   regression test. *)
let test_session_survives_machine_error () =
  let program =
    Wo_synth.Synth.lock_disciplined ~seed:4 ~procs:3
      ~sections_per_proc:4 ~locks:3 ~shared_locs:3 ()
  in
  let build () =
    coarse_machine (Wo_machines.Coherent.Net { base = 2; jitter = 20 })
  in
  (* a seed this machine completes on, found against the fresh oracle *)
  let oracle = build () in
  let good_seed =
    let rec find s =
      if s > 50 then Alcotest.fail "no completing seed below 50"
      else
        match M.run oracle ~seed:s program with
        | _ -> s
        | exception M.Machine_error _ -> find (s + 1)
    in
    find 1
  in
  List.iter
    (fun engine ->
      let machine = build () in
      let session = M.new_session machine engine in
      check
        (Printf.sprintf "seed 2 deadlocks in a session (%s)"
           (M.engine_name engine))
        true
        (try
           ignore (M.session_run session ~seed:2 program);
           false
         with M.Machine_error _ -> true);
      check
        (Printf.sprintf "post-error run is byte-identical to fresh (%s)"
           (M.engine_name engine))
        true
        (fingerprint (M.session_run session ~seed:good_seed program)
        = fresh_fp oracle ~seed:good_seed program))
    [ M.Compiled; M.Ast ]

(* 5. [run_batch] is exactly the per-seed session runs. *)
let test_run_batch_matches_per_seed () =
  let t = L.figure1 in
  let session = M.new_session P.wo_new M.Compiled in
  let seeds = [ 5; 1; 12 ] in
  let batch = M.run_batch session ~seeds t.L.program in
  check_int "batch length" (List.length seeds) (List.length batch);
  List.iter2
    (fun seed r ->
      check "batch element = fresh run" true
        (fingerprint r = fresh_fp P.wo_new ~seed t.L.program))
    seeds batch

(* 6. The sweep front door: an AST campaign and a compiled campaign
   report the same science — per cell, the full report content. *)
let report_fp (r : Wo_litmus.Runner.report) =
  Marshal.to_string
    ( r.Wo_litmus.Runner.machine,
      r.Wo_litmus.Runner.runs,
      r.Wo_litmus.Runner.sc_outcomes,
      r.Wo_litmus.Runner.histogram,
      r.Wo_litmus.Runner.violations,
      r.Wo_litmus.Runner.lemma1_failures,
      r.Wo_litmus.Runner.interesting_counts,
      r.Wo_litmus.Runner.total_cycles,
      r.Wo_litmus.Runner.sc_coverage )
    []

let test_sweep_engine_identity () =
  let machines = [ P.sc_dir; P.wo_new ] in
  let campaign engine =
    Sweep.litmus_campaign ~runs:8 ~base_seed:1 ~domains:2 ~engine ~machines
      L.all
  in
  let ast = campaign M.Ast and compiled = campaign M.Compiled in
  List.iter2
    (fun (a : Sweep.litmus_cell) (c : Sweep.litmus_cell) ->
      check
        (Printf.sprintf "sweep cell %s/%s engine-independent"
           a.Sweep.test.L.name a.Sweep.machine.M.name)
        true
        (report_fp a.Sweep.report = report_fp c.Sweep.report
        && a.Sweep.ok = c.Sweep.ok))
    ast.Sweep.cells compiled.Sweep.cells

(* 7. The campaign front door: same cases, same specs, one store per
   engine — the stores and the findings reports must be byte-identical
   (the store key does not mention the engine, so a store written by
   either can warm-resume the other). *)
let test_campaign_engine_identity () =
  let module C = Wo_campaign.Campaign in
  let cases =
    match
      Wo_synth.Synth.batch ~family:"cycle-mixed" ~base_seed:1 ~count:6 ()
    with
    | Ok cs -> cs
    | Error e -> Alcotest.failf "batch: %s" e
  in
  let specs =
    [
      Option.get (P.spec_of "sc-dir");
      Option.get (P.spec_of "wo-new");
    ]
  in
  let run engine =
    let path = Filename.temp_file "wo-machpath-test" ".store" in
    let config = { (C.default_config ~store_path:path) with C.runs = 4 } in
    let r = C.run ~engine config ~specs ~cases in
    (path, C.findings_report r)
  in
  let ast_path, ast_report = run M.Ast in
  let comp_path, comp_report = run M.Compiled in
  Alcotest.(check string) "findings reports identical" ast_report comp_report;
  let bytes path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  check "stores byte-identical" true (bytes ast_path = bytes comp_path);
  Sys.remove ast_path;
  Sys.remove comp_path

(* 8. The run-accounting counters move the right way. *)
let test_counters () =
  let runs0 = M.runs () and reuse0 = M.session_reuses () in
  let session = M.new_session P.wo_new M.Compiled in
  let t = L.figure1 in
  ignore (M.session_run session ~seed:1 t.L.program);
  ignore (M.session_run session ~seed:2 t.L.program);
  check "runs counted" true (M.runs () >= runs0 + 2);
  check "second run reused the session" true (M.session_reuses () > reuse0)

(* --- replay of seed-invariant runs -------------------------------------------- *)

(* A session run that draws nothing from the machine's RNG is kept and
   answers later seeds of the same binding.  Every replayed result must
   still be byte-identical to a fresh simulation at its own seed. *)

module Spec = Wo_machines.Spec
module Memsys = Wo_machines.Memsys

let grid_fabrics =
  [
    Memsys.Bus { transfer_cycles = 2 };
    Memsys.Net { base = 2; jitter = 6 };
    Memsys.Net_fixed { latency = 4 };
  ]

(* The three E19 campaign machines, each on the campaign grid's three
   fabrics: one cached, one uncached and one ordering backend. *)
let replay_specs =
  List.concat_map
    (fun name -> Spec.grid ~fabrics:grid_fabrics (Option.get (P.spec_of name)))
    [ "wo-new"; "tso-wb"; "bus-nocache-wb" ]

let replay_machines = List.map (fun s -> (s, Spec.build s)) replay_specs

let seeds n = List.init n (fun i -> i + 1)

(* A run's observable result, or the fact that it raised. *)
let attempt f =
  match f () with
  | r -> Some (fingerprint r)
  | exception M.Machine_error _ -> None

(* A session batch over seeds 1..n against the fresh oracle at each. *)
let batch_matches_fresh machine n program =
  let session = M.new_session machine M.Compiled in
  List.for_all
    (fun seed ->
      attempt (fun () -> M.session_run session ~seed program)
      = attempt (fun () -> M.run machine ~seed program))
    (seeds n)

let synth_families =
  List.filter (fun f -> f <> "mutate") Wo_synth.Synth.families

let prop_replay_lockstep =
  QCheck.Test.make ~name:"session batches with replay = fresh runs per seed"
    ~count:6 QCheck.small_int (fun seed ->
      let programs =
        List.map
          (fun family ->
            match Wo_synth.Synth.generate ~family ~seed () with
            | Ok c -> c.Wo_synth.Synth.program
            | Error e -> QCheck.Test.fail_reportf "%s: %s" family e)
          synth_families
      in
      List.for_all
        (fun (_, machine) ->
          List.for_all (batch_matches_fresh machine 4) programs)
        replay_machines)

(* How many replays a thunk caused. *)
let replays_during f =
  let r0 = M.session_replays () in
  f ();
  M.session_replays () - r0

let batch_replays machine ~n program =
  let session = M.new_session machine M.Compiled in
  replays_during (fun () -> ignore (M.run_batch session ~seeds:(seeds n) program))

let test_replay_counter () =
  let n = 5 and program = L.dekker_sync.L.program in
  List.iter
    (fun ((spec : Spec.t), machine) ->
      let want =
        match spec.Spec.fabric with
        | Memsys.Net _ -> 0
        | _ -> n - 1
      in
      check_int
        (Printf.sprintf "%s replays" spec.Spec.name)
        want
        (batch_replays machine ~n program))
    replay_machines;
  (* A jitter-free network draws nothing either: replay follows the
     draws, not the fabric's name. *)
  List.iter
    (fun name ->
      let spec =
        List.hd
          (Spec.grid
             ~fabrics:[ Memsys.Net { base = 2; jitter = 0 } ]
             (Option.get (P.spec_of name)))
      in
      let machine = Spec.build spec in
      check_int (spec.Spec.name ^ " replays") (n - 1)
        (batch_replays machine ~n program);
      check (spec.Spec.name ^ " replays = fresh") true
        (batch_matches_fresh machine n program))
    [ "wo-new"; "tso-wb"; "bus-nocache-wb" ];
  (* the CLI's metrics document carries the counter *)
  let session = M.new_session P.bus_nocache_wb M.Compiled in
  let rec_ = Wo_obs.Recorder.create () in
  ignore (M.run_batch session ~seeds:(seeds n) program);
  Wo_obs.Recorder.with_sink rec_ M.emit_counters;
  check "machine.session_replays emitted with its value" true
    (List.exists
       (function
         | Wo_obs.Recorder.Counter { name = "machine.session_replays"; value; _ }
           ->
           value = M.session_replays ()
         | _ -> false)
       (Wo_obs.Recorder.events rec_))

(* Each of these must simulate although the machine draws nothing, and
   still agree with the fresh oracle. *)
let test_replay_guards () =
  let machine = P.bus_nocache_wb and t = L.dekker_sync in
  let fresh seed program = fresh_fp machine ~seed program in
  (* a structurally equal but physically new program *)
  let session = M.new_session machine M.Compiled in
  let copy =
    let p = t.L.program in
    { p with Wo_prog.Program.threads = Array.copy p.Wo_prog.Program.threads }
  in
  check "copy is structurally equal" true (copy = t.L.program);
  let got = ref [] in
  check_int "a new program object simulates" 0
    (replays_during (fun () ->
         got :=
           [
             fingerprint (M.session_run session ~seed:1 t.L.program);
             fingerprint (M.session_run session ~seed:2 copy);
           ]));
  check "new program object = fresh" true
    (!got = [ fresh 1 t.L.program; fresh 2 copy ]);
  (* a different compiled artifact for the same program *)
  let compile () = Option.get (Wo_prog.Prog_compile.compile t.L.program) in
  let session = M.new_session machine M.Compiled in
  check_int "a new artifact simulates" 0
    (replays_during (fun () ->
         got :=
           [
             fingerprint
               (M.session_run session ~seed:1 ~compiled:(compile ()) t.L.program);
             fingerprint
               (M.session_run session ~seed:2 ~compiled:(compile ()) t.L.program);
           ]));
  check "new artifact = fresh" true
    (!got = [ fresh 1 t.L.program; fresh 2 t.L.program ]);
  (* an enabled recorder: every run simulates and records its spans,
     even with an untraced result kept from before *)
  let spans_of f =
    let r = Wo_obs.Recorder.create () in
    Wo_obs.Recorder.with_sink r f;
    Wo_obs.Recorder.length r
  in
  let one = spans_of (fun () -> ignore (M.run machine ~seed:1 t.L.program)) in
  check "a run records spans" true (one > 0);
  let n = 4 in
  let session = M.new_session machine M.Compiled in
  ignore (M.session_run session ~seed:1 t.L.program);
  let traced = ref 0 in
  check_int "a traced batch simulates" 0
    (replays_during (fun () ->
         traced :=
           spans_of (fun () ->
               ignore (M.run_batch session ~seeds:(seeds n) t.L.program))));
  check_int "a traced batch records every run's spans" (n * one) !traced;
  (* untraced again: the traced runs were not kept *)
  check_int "first untraced run after tracing simulates" 0
    (replays_during (fun () -> ignore (M.session_run session ~seed:1 t.L.program)));
  check_int "then replays" 1
    (replays_during (fun () -> ignore (M.session_run session ~seed:2 t.L.program)))

(* A run that raises [Machine_error] is never kept, and a kept result
   never answers for another binding.  Test 4's coarse-counter machine
   deadlocks at every seed on a 6-cycle bus (it draws nothing, so every
   seed is the same execution).  After a completing run is kept, each
   deadlocking seed must simulate and raise, as the fresh oracle does,
   and the session must then run the completing program
   byte-identically again. *)
let test_replay_after_machine_error () =
  let machine = coarse_machine (Wo_machines.Coherent.Bus { transfer_cycles = 6 }) in
  (* same width, so the session keeps its built state throughout *)
  let program seed =
    Wo_synth.Synth.lock_disciplined ~seed ~procs:3 ~sections_per_proc:4
      ~locks:3 ~shared_locs:3 ()
  in
  let deadlocking = program 21 and completing = program 4 in
  let session = M.new_session machine M.Compiled in
  ignore (M.session_run session ~seed:1 completing);
  check_int "error runs are not replayed" 0
    (replays_during (fun () ->
         List.iter
           (fun seed ->
             check
               (Printf.sprintf "seed %d deadlocks" seed)
               true
               (attempt (fun () -> M.session_run session ~seed deadlocking)
               = None
               && attempt (fun () -> M.run machine ~seed deadlocking) = None))
           (seeds 3)));
  check "post-error batch = fresh" true
    (List.for_all
       (fun seed ->
         attempt (fun () -> M.session_run session ~seed completing)
         = attempt (fun () -> M.run machine ~seed completing))
       (seeds 3))

let tests =
  [
    Alcotest.test_case "compiled sessions = fresh AST (all tests x presets)"
      `Quick test_compiled_session_matches_fresh_ast;
    QCheck_alcotest.to_alcotest prop_random_programs_lockstep;
    Alcotest.test_case "session reset leaves no residue" `Quick
      test_session_reset_no_residue;
    Alcotest.test_case "session survives a Machine_error run" `Quick
      test_session_survives_machine_error;
    Alcotest.test_case "run_batch = per-seed session runs" `Quick
      test_run_batch_matches_per_seed;
    Alcotest.test_case "sweep campaigns engine-independent" `Quick
      test_sweep_engine_identity;
    Alcotest.test_case "campaign stores and reports engine-independent"
      `Quick test_campaign_engine_identity;
    Alcotest.test_case "machine counters account runs and reuse" `Quick
      test_counters;
    QCheck_alcotest.to_alcotest prop_replay_lockstep;
    Alcotest.test_case "replay counter follows RNG draws" `Quick
      test_replay_counter;
    Alcotest.test_case "rebinding and tracing force simulation" `Quick
      test_replay_guards;
    Alcotest.test_case "Machine_error runs are never replayed" `Quick
      test_replay_after_machine_error;
  ]
