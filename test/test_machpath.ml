(* Tests for the machine path (DESIGN.md: compiled machine path).  There
   is one execution path: the processor frontend steps the compiled
   artifact inside a reusable session, and [Machine.run] is a fresh
   session's first run.  Three things pin it to the AST walk it
   replaced:
   - a golden of canonical result digests over every preset and model
     preset x catalogue test x seeds 1-3 ([machine_canonical.golden],
     compiled in as [Machine_canonical_golden]), recorded from fresh
     compiled runs, which were proven equal to fresh-construction AST
     runs before them;
   - a frontend lockstep: the compiled frontend and the AST walker
     ([Wo_oracle.Ast_frontend]), each on its own engine, driven through
     a scripted port with the same delays and read values;
   - reused sessions against fresh ones, at every seed.
   Fingerprinting the whole [Machine.result] (outcome, trace, cycles,
   per-proc finish times, stats, stalls, taps) means a divergence
   anywhere in the observable record fails, not just in the outcome. *)

module M = Wo_machines.Machine
module L = Wo_litmus.Litmus
module P = Wo_machines.Presets
module Port = Wo_oracle.Scripted_port
module R = Wo_litmus.Runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* [Closures] tolerates the rare [Rmw_fn] payload in a trace; for the
   catalogued and synthesized programs (descriptor RMWs only) the flag
   is inert and the fingerprint is a pure function of the data. *)
let fingerprint (r : M.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.Closures ]))

let fresh_fp machine ~seed program = fingerprint (M.run machine ~seed program)

(* A digest of a result's logical content, through public accessors
   only: outcome, trace entries, cycles, finish times, the legacy stats
   view, and the stall and tap JSON.  Unlike [fingerprint], it does not
   depend on how the result is represented, so the golden below holds
   across representation changes.  [stat] keeps a subset of the stats
   (all by default). *)
let canonical ?(stat = fun _ -> true) (r : M.result) =
  let b = Buffer.create 1024 in
  let opt = function None -> "-" | Some v -> string_of_int v in
  List.iter
    (fun (p, reg, v) -> Printf.bprintf b "r %d %d %d\n" p reg v)
    r.M.outcome.Wo_prog.Outcome.registers;
  List.iter
    (fun (l, v) -> Printf.bprintf b "m %d %d\n" l v)
    r.M.outcome.Wo_prog.Outcome.memory;
  List.iter
    (fun (e : Wo_sim.Trace.entry) ->
      let ev = e.Wo_sim.Trace.event in
      Printf.bprintf b "e %d %d %d %s %d %s %s %d %d %d\n" ev.Wo_core.Event.id
        ev.proc ev.seq
        (Format.asprintf "%a" Wo_core.Event.pp_kind ev.kind)
        ev.loc (opt ev.read_value) (opt ev.written_value) e.issued
        e.committed e.performed)
    (Wo_sim.Trace.entries r.M.trace);
  Printf.bprintf b "c %d\n" r.M.cycles;
  Array.iter (Printf.bprintf b "f %d\n") r.M.proc_finish;
  List.iter
    (fun (k, v) -> if stat k then Printf.bprintf b "s %s %d\n" k v)
    (M.stats r);
  Printf.bprintf b "stalls %s\n"
    (Wo_obs.Json.to_string (Wo_obs.Stall.to_json r.M.stalls));
  Printf.bprintf b "taps %s\n"
    (Wo_obs.Json.to_string (Wo_obs.Tap.to_json r.M.taps));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [haystack] contains [needle]. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* 1. Every catalogued litmus test, on every preset and model preset, at
   seeds 1-3: a reused session and a fresh one both reproduce the golden
   canonical digests, and their results are byte-identical to each
   other.  The complete product, not a sample — the [ideal] rows cover
   Cinterp's random scheduler, the model rows the {!Ordering} backend. *)
let golden_machines = P.all @ P.models

let golden =
  lazy
    (let tbl = Hashtbl.create 1024 in
     String.split_on_char '\n' Machine_canonical_golden.contents
     |> List.iter (fun line ->
            if line <> "" then
              Scanf.sscanf line "%s %s %d %s" (fun m t seed fp ->
                  Hashtbl.replace tbl (m, t, seed) fp));
     tbl)

let test_compiled_session_matches_fresh_ast () =
  let golden = Lazy.force golden in
  check_int "golden covers presets x tests x 3 seeds"
    (List.length golden_machines * List.length L.all * 3)
    (Hashtbl.length golden);
  List.iter
    (fun (machine : M.t) ->
      let session = M.new_session machine M.Compiled in
      List.iter
        (fun (t : L.t) ->
          for seed = 1 to 3 do
            let want = Hashtbl.find golden (machine.M.name, t.L.name, seed) in
            let session_r = M.session_run session ~seed t.L.program in
            let fresh_r = M.run machine ~seed t.L.program in
            if canonical session_r <> want then
              Alcotest.failf "%s / %s / seed %d: session <> golden"
                machine.M.name t.L.name seed;
            if canonical fresh_r <> want then
              Alcotest.failf "%s / %s / seed %d: fresh run <> golden"
                machine.M.name t.L.name seed;
            if fingerprint session_r <> fingerprint fresh_r then
              Alcotest.failf "%s / %s / seed %d: session bytes <> fresh bytes"
                machine.M.name t.L.name seed
          done)
        L.all)
    golden_machines

(* 2. The frontend lockstep: the compiled frontend and the AST walker
   issue the same (time, proc, request) stream and finish with the same
   registers at the same times, given the same scripted delays (0
   included) and read values.  Every processor of a program shares one
   engine, so the compiled walker's inline-step fast path meets the
   other processors' pending events. *)
let lockstep ?local_cost ~seed program =
  let art = Option.get (Wo_prog.Prog_compile.compile program) in
  Port.run ~seed program (Port.compiled ?local_cost art)
  = Port.run ~seed program (Port.ast ?local_cost program)

let test_frontend_lockstep_catalogue () =
  List.iter
    (fun (t : L.t) ->
      List.iter
        (fun local_cost ->
          for seed = 1 to 4 do
            if not (lockstep ~local_cost ~seed t.L.program) then
              Alcotest.failf "%s / local_cost %d / seed %d: compiled <> AST"
                t.L.name local_cost seed
          done)
        [ 1; 3 ])
    L.all

let prop_frontend_lockstep_random =
  QCheck.Test.make ~name:"compiled frontend = AST frontend on random programs"
    ~count:40 QCheck.small_int (fun seed ->
      List.for_all
        (fun program ->
          lockstep ~seed:(seed + 1) program
          && lockstep ~local_cost:2 ~seed:(seed + 7) program)
        [
          Wo_synth.Synth.racy ~seed ~procs:3 ~ops_per_proc:4 ~locs:3 ();
          Wo_synth.Synth.lock_disciplined ~seed ~procs:3
            ~sections_per_proc:2 ~locks:2 ~shared_locs:2 ();
        ])

(* 3. Session reuse across interleaved programs and repeated seeds: the
   in-place reset must leave no residue — rerunning an earlier (program,
   seed) pair through a much-reused session reproduces its bytes. *)
let test_session_reset_no_residue () =
  let machine = P.wo_new in
  let session = M.new_session machine M.Compiled in
  let t1 = L.dekker_sync and t2 = L.figure1 in
  let first = fingerprint (M.session_run session ~seed:7 t1.L.program) in
  (* churn: different programs (different proc counts force a rebuild),
     different seeds *)
  ignore (M.session_run session ~seed:3 t2.L.program);
  ignore (M.session_run session ~seed:9 t1.L.program);
  ignore (M.session_run session ~seed:4 t2.L.program);
  let again = fingerprint (M.session_run session ~seed:7 t1.L.program) in
  check "reused session reproduces" true
    (first = again && first = fresh_fp machine ~seed:7 t1.L.program)

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

(* The known deadlocking (program, seed) pair from the coarse-counter
   regression test. *)
let deadlock_program () =
  Wo_synth.Synth.lock_disciplined ~seed:4 ~procs:3 ~sections_per_proc:4
    ~locks:3 ~shared_locs:3 ()

let deadlock_machine () =
  coarse_machine (Wo_machines.Coherent.Net { base = 2; jitter = 20 })

(* 4. A [Machine_error] mid-batch must not poison the session: the
   watchdog abandons a run with parked closures and half-filled state,
   and the start-of-run reset has to clear all of it. *)
let test_session_survives_machine_error () =
  let program = deadlock_program () in
  (* a seed this machine completes on, found against a fresh session *)
  let oracle = deadlock_machine () in
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
  let session = M.new_session (deadlock_machine ()) M.Compiled in
  check "seed 2 deadlocks in a session" true
    (try
       ignore (M.session_run session ~seed:2 program);
       false
     with M.Machine_error _ -> true);
  check "post-error run is byte-identical to fresh" true
    (fingerprint (M.session_run session ~seed:good_seed program)
    = fresh_fp oracle ~seed:good_seed program)

(* The deadlock diagnostics name the operation each blocked processor
   waits on, by kind and location as traces print them. *)
let test_deadlock_names_location () =
  let program = deadlock_program () in
  match M.run (deadlock_machine ()) ~seed:2 program with
  | _ -> Alcotest.fail "seed 2 completed"
  | exception M.Machine_error msg ->
    let named =
      List.exists
        (fun loc ->
          List.exists
            (fun kind ->
              contains msg
                (Format.asprintf "blocked on %a %a" Wo_core.Event.pp_kind kind
                   Wo_core.Event.pp_loc loc))
            Wo_core.Event.
              [ Data_read; Data_write; Sync_read; Sync_write; Sync_rmw ])
        (Wo_prog.Program.locs program)
    in
    check (Printf.sprintf "%S names a blocked operation's location" msg) true
      named

(* A program beyond the compile bounds raises [Machine_error] naming the
   bound, on a simulated machine and on the ideal one alike. *)
let test_uncompilable_program_raises () =
  let n = Wo_prog.Program.max_procs + 1 in
  let program =
    Wo_prog.Program.make ~name:"wide"
      (List.init n (fun p -> [ Wo_prog.Instr.Write (p mod 4, Wo_prog.Instr.Const 1) ]))
  in
  List.iter
    (fun (machine : M.t) ->
      match M.run machine ~seed:1 program with
      | _ -> Alcotest.failf "%s ran a %d-processor program" machine.M.name n
      | exception M.Machine_error msg ->
        check
          (Printf.sprintf "%s: %S names the bound" machine.M.name msg)
          true
          (contains msg
             (Printf.sprintf "%d processors exceed the compile bound of %d" n
                Wo_prog.Program.max_procs)))
    [ P.wo_new; P.ideal ]

(* 5. The witness search: the first seed of the batch whose session run
   satisfies the predicate, with a result equal to a fresh run's. *)
let test_first_seed () =
  let t = L.figure1 in
  let session = M.new_session P.wo_new M.Compiled in
  let outcome seed = (M.run P.wo_new ~seed t.L.program).M.outcome in
  let target = outcome 7 in
  let want =
    List.find
      (fun seed -> Wo_prog.Outcome.compare (outcome seed) target = 0)
      (List.init 7 (fun i -> i + 3))
  in
  let matches (r : M.result) = Wo_prog.Outcome.compare r.M.outcome target = 0 in
  (match
     R.first_seed session ~compiled:None ~base_seed:3 ~runs:10 t.L.program
       matches
   with
  | Some (seed, r) ->
    check_int "first matching seed" want seed;
    check "its result = a fresh run's" true
      (fingerprint r = fresh_fp P.wo_new ~seed t.L.program)
  | None -> Alcotest.fail "no seed found");
  check "no seed past the batch" true
    (R.first_seed session ~compiled:None ~base_seed:3 ~runs:10 t.L.program
       (fun _ -> false)
    = None)

(* 6. The sweep's store-free settle gives the same verdict bytes per
   cell at every domain count. *)
let test_sweep_domain_identity () =
  let module C = Wo_campaign.Campaign in
  let specs = [ P.sc_dir_spec; P.wo_new_spec ] in
  let sweep domains =
    let config =
      { (C.default_config ~store_path:"") with
        C.runs = 8; domains = Some domains }
    in
    let plan = C.plan config ~specs ~cases:(List.map C.case_of_litmus L.all) in
    (C.settle_all config plan).C.s_verdicts
  in
  let one = sweep 1 and two = sweep 2 in
  check_int "one verdict per cell" (List.length L.all * List.length specs)
    (Array.length one);
  List.iteri
    (fun i (t : L.t) ->
      List.iteri
        (fun j (spec : Wo_machines.Spec.t) ->
          let idx = (i * List.length specs) + j in
          check
            (Printf.sprintf "sweep cell %s/%s domain-independent" t.L.name
               spec.Wo_machines.Spec.name)
            true
            (C.verdict_to_string one.(idx) = C.verdict_to_string two.(idx)))
        specs)
    L.all

(* 7. The campaign front door: same cases, same specs, one store per
   domain count — the stores and the findings reports must be
   byte-identical. *)
let test_campaign_domain_identity () =
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
  let run domains =
    let path = Filename.temp_file "wo-machpath-test" ".store" in
    let config =
      { (C.default_config ~store_path:path) with C.runs = 4; domains = Some domains }
    in
    let r = C.run config ~specs ~cases in
    (path, C.findings_report r)
  in
  let one_path, one_report = run 1 in
  let two_path, two_report = run 2 in
  Alcotest.(check string) "findings reports identical" one_report two_report;
  let bytes path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  check "stores byte-identical" true (bytes one_path = bytes two_path);
  Sys.remove one_path;
  Sys.remove two_path

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

(* A session run at each of seeds 1..n, in order. *)
let run_seeds session ~n program =
  List.map (fun seed -> M.session_run session ~seed program) (seeds n)

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
  replays_during (fun () -> ignore (run_seeds session ~n program))

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
  ignore (run_seeds session ~n program);
  Wo_obs.Recorder.with_sink rec_ M.emit_counters;
  check "machine.session_replays emitted with its value" true
    (List.exists
       (function
         | Wo_obs.Recorder.Counter { name = "machine.session_replays"; value; _ }
           ->
           value = M.session_replays ()
         | _ -> false)
       (Wo_obs.Recorder.events rec_))

(* A replaying session hands [Runner.run] the same physical result for
   every seed after the first, and the runner counts that result's
   Lemma-1 verdict again instead of re-checking.  Its report must equal
   the one over fresh per-seed sessions, which never replay and check
   every trace.  The write-buffer machine without synchronization
   support ([+none]) fails Lemma 1 on every seed of [dekker-sync], on a
   bus and on a fixed-latency network, so reused failing verdicts are
   counted too; [net-cache] on its jittered network fails it on some
   seeds only, so a verdict must not outlive its result. *)
let fresh_per_seed (machine : M.t) =
  {
    M.session_machine = machine.M.name;
    session_run = (fun ~seed ?compiled:_ program -> M.run machine ~seed program);
  }

let report_view (r : R.report) =
  ( ( r.R.runs, r.R.sc_outcomes, r.R.histogram, r.R.violations ),
    ( r.R.lemma1_failures, r.R.interesting_counts, r.R.total_cycles,
      r.R.sc_coverage ) )

let test_lemma1_reuse () =
  let cell ?(runs = 6) (machine : M.t) (t : L.t) =
    let fresh = R.run ~runs ~session:(fresh_per_seed machine) machine t in
    let replayed = ref None in
    let replays =
      replays_during (fun () -> replayed := Some (R.run ~runs machine t))
    in
    let replayed = Option.get !replayed in
    if report_view replayed <> report_view fresh then
      Alcotest.failf "%s / %s: replaying report <> fresh per-seed report"
        machine.M.name t.L.name;
    (replays, replayed.R.lemma1_failures)
  in
  List.iter
    (fun machine -> List.iter (fun t -> ignore (cell machine t)) L.all)
    (P.all @ P.models);
  List.iter
    (fun fabric ->
      let spec =
        List.hd
          (Spec.grid ~fabrics:[ fabric ] ~syncs:[ Spec.Sync_none ]
             P.bus_nocache_wb_spec)
      in
      let replays, failures = cell (Spec.build spec) L.dekker_sync in
      check_int (spec.Spec.name ^ " replays") 5 replays;
      check_int (spec.Spec.name ^ " Lemma-1 failures") 6 failures)
    [ Memsys.Bus { transfer_cycles = 2 }; Memsys.Net_fixed { latency = 4 } ];
  let replays, failures = cell ~runs:20 P.net_cache_relaxed L.dekker_sync in
  check_int "net-cache replays" 0 replays;
  check "net-cache fails Lemma 1 on some seeds only" true
    (failures > 0 && failures < 20)

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
               ignore (run_seeds session ~n t.L.program))));
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

(* Every preset and model preset, on the campaign grid's three fabrics,
   under all six sync policies and all four ordering models. *)
let key_specs =
  List.concat_map
    (fun base ->
      Spec.grid ~fabrics:grid_fabrics
        ~syncs:
          Spec.
            [
              Sync_none; Sync_sc; Sync_fence; Sync_def1_stall;
              Sync_reserve_bit; Sync_drf1_two_level;
            ]
        ~models:
          (List.map
             (fun m -> Option.get (Spec.model_of_string m))
             [ "sc"; "tso"; "pso"; "ra" ])
        base)
    (P.specs @ P.model_specs)

module I = Wo_prog.Instr

let prog name threads = Wo_prog.Program.make ~name threads
let w loc = I.Write (loc, I.Const 1)

(* The two places where Figure 1's two configuration-1 store buffers
   part ([Spec.run_key]'s TSO identity excludes both):
   (a) nine back-to-back writes meet a depth-8 buffer: the uncached
   buffer holds nine outstanding (eight queued, one draining), TSO
   eight; (b) an RMW whose location is still buffered behind another
   write, under [Sync_none]: the uncached buffer waits for every write,
   TSO only for its own location. *)
let nine_writes = prog "nine-writes" [ List.init 9 w; [ I.Read (0, 8) ] ]

let rmw_behind =
  prog "rmw-behind" [ [ w 2; w 0; w 1; I.Test_and_set (0, 0) ]; [ I.Read (0, 1) ] ]

(* The backend a spec builds, as far as its stats can tell. *)
let ordering_backend (s : Spec.t) = s.Spec.model <> Spec.Model_sc

let not_model k = not (String.starts_with ~prefix:"model." k)

(* Specs with equal [Spec.run_key] on a program run it identically: the
   campaign settles one seed batch per class on that promise.  For every
   program (the whole catalogue, looping tests included; sync-free
   synthesized cycles and mutants; the two divergence programs above),
   the key specs are grouped by their run key on its features, and
   every member of a class must reproduce the first member's canonical
   digest at seeds 1-3 — all of it when both build the same backend,
   all but [Ordering]'s [model.*] counters when an uncached write
   buffer meets a TSO one.  A run that raises counts as "raised" (its
   message names the machine), so raising must match raising. *)
let test_run_key_sound () =
  let synth family =
    match
      Wo_synth.Synth.batch
        ~corpus:(Wo_campaign.Campaign.catalogue_corpus ())
        ~family ~base_seed:1 ~count:12 ()
    with
    | Ok cs ->
      List.filter_map
        (fun (c : Wo_synth.Synth.case) ->
          let p = c.Wo_synth.Synth.program in
          if (Wo_prog.Program.features p).Wo_prog.Program.sync_free then Some p
          else None)
        cs
    | Error e -> Alcotest.failf "batch: %s" e
  in
  let programs =
    List.map (fun (t : L.t) -> t.L.program) L.all
    @ synth "cycle-racy" @ synth "mutate"
    @ [ nine_writes; rmw_behind ]
  in
  let runs spec program =
    let session = M.new_session (Spec.build spec) M.Compiled in
    List.map
      (fun seed ->
        match M.session_run session ~seed program with
        | r -> (canonical r, canonical ~stat:not_model r)
        | exception M.Machine_error _ -> ("raised", "raised"))
      (seeds 3)
  in
  let shared = ref 0 and across = ref 0 and sync_free_merges = ref 0 in
  List.iter
    (fun (program : Wo_prog.Program.t) ->
      let features = Wo_prog.Program.features program in
      let classes = Hashtbl.create 256 in
      List.iter
        (fun spec ->
          let k = Spec.run_key spec features in
          Hashtbl.replace classes k
            (spec :: Option.value ~default:[] (Hashtbl.find_opt classes k)))
        key_specs;
      Hashtbl.iter
        (fun _ members ->
          match List.rev members with
          | [] | [ _ ] -> ()
          | rep :: rest ->
            let want = runs rep program in
            List.iter
              (fun (spec : Spec.t) ->
                incr shared;
                if spec.Spec.sync <> rep.Spec.sync
                   && features.Wo_prog.Program.sync_free
                then incr sync_free_merges;
                let got = runs spec program in
                let same =
                  if ordering_backend spec = ordering_backend rep then
                    List.map fst got = List.map fst want
                  else begin
                    incr across;
                    List.map snd got = List.map snd want
                  end
                in
                if not same then
                  Alcotest.failf "%s and %s share a run key on %s but not their runs"
                    spec.Spec.name rep.Spec.name program.Wo_prog.Program.name)
              rest)
        classes)
    programs;
  (* every kind of merge is exercised *)
  check "some specs share a key" true (!shared > 0);
  check "some uncached buffers share TSO's key" true (!across > 0);
  check "some sync-free programs merge sync policies" true (!sync_free_merges > 0)

(* The two divergences, pinned: on the campaign grid's fabrics,
   [bus-nocache-wb]'s uncached buffer and [tso-wb]'s TSO buffer run the
   two programs above differently (beyond [model.*]) — nine writes
   under [+none] and [+fence], the buffered RMW under [+none] only — and
   their run keys keep those cells apart, while on the RMW program under
   [+fence] they agree and share a key. *)
let test_store_buffers_diverge () =
  let spec name fabric sync =
    List.hd
      (Spec.grid ~fabrics:[ fabric ] ~syncs:[ sync ] (Option.get (P.spec_of name)))
  in
  let differ a b program =
    let d s =
      let session = M.new_session (Spec.build s) M.Compiled in
      List.map
        (fun seed -> canonical ~stat:not_model (M.session_run session ~seed program))
        (seeds 3)
    in
    d a <> d b
  in
  List.iter
    (fun fabric ->
      List.iter
        (fun (program, sync, diverge) ->
          let u = spec "bus-nocache-wb" fabric sync
          and t = spec "tso-wb" fabric sync in
          let f = Wo_prog.Program.features program in
          let what =
            Printf.sprintf "%s on %s" program.Wo_prog.Program.name t.Spec.name
          in
          check (what ^ ": runs differ") diverge (differ u t program);
          check (what ^ ": keys differ") diverge
            (Spec.run_key u f <> Spec.run_key t f))
        [
          (nine_writes, Spec.Sync_none, true);
          (nine_writes, Spec.Sync_fence, true);
          (rmw_behind, Spec.Sync_none, true);
          (rmw_behind, Spec.Sync_fence, false);
        ])
    grid_fabrics

let tests =
  [
    Alcotest.test_case "compiled sessions = fresh AST (all tests x presets)"
      `Quick test_compiled_session_matches_fresh_ast;
    Alcotest.test_case "frontend lockstep on every catalogue test" `Quick
      test_frontend_lockstep_catalogue;
    QCheck_alcotest.to_alcotest prop_frontend_lockstep_random;
    Alcotest.test_case "session reset leaves no residue" `Quick
      test_session_reset_no_residue;
    Alcotest.test_case "session survives a Machine_error run" `Quick
      test_session_survives_machine_error;
    Alcotest.test_case "deadlock diagnostics name the location" `Quick
      test_deadlock_names_location;
    Alcotest.test_case "uncompilable programs raise Machine_error" `Quick
      test_uncompilable_program_raises;
    Alcotest.test_case "first_seed = first matching fresh run" `Quick
      test_first_seed;
    Alcotest.test_case "sweep campaigns domain-independent" `Quick
      test_sweep_domain_identity;
    Alcotest.test_case "campaign stores and reports domain-independent"
      `Quick test_campaign_domain_identity;
    Alcotest.test_case "machine counters account runs and reuse" `Quick
      test_counters;
    QCheck_alcotest.to_alcotest prop_replay_lockstep;
    Alcotest.test_case "replay counter follows RNG draws" `Quick
      test_replay_counter;
    Alcotest.test_case "rebinding and tracing force simulation" `Quick
      test_replay_guards;
    Alcotest.test_case "Machine_error runs are never replayed" `Quick
      test_replay_after_machine_error;
    Alcotest.test_case "Lemma-1 verdict reuse = fresh per-seed reports" `Quick
      test_lemma1_reuse;
    Alcotest.test_case "equal run keys run a program identically" `Quick
      test_run_key_sound;
    Alcotest.test_case "the two configuration-1 store buffers diverge" `Quick
      test_store_buffers_diverge;
  ]
