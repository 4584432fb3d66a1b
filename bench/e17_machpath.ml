(* Experiment E17 — the compiled machine path.

   PR 9 carries PR 6's compilation into the stateful machines: the
   processor frontend gains an int-coded mode driven by the Prog_compile
   artifact (dense register arrays, stride-4 op decoding, no Int_map, no
   per-instruction list traversal), and machines gain reusable sessions
   that build the fabric and memory system once and reset them in place
   between seeds.  This experiment asserts, in order of importance:

   - identity: a compiled session's results are Marshal-fingerprint
     identical to fresh-construction AST runs — the oracle — at every
     seed, and sweep campaigns report identically at every engine and
     domain count;
   - allocation: >=3x fewer allocated bytes/run ([Gc.allocated_bytes])
     at full bounds, since the session neither rebuilds the machine nor
     re-walks the instruction tree (measured: ~8x on multi-proc compute,
     ~40x on frontend-bound rows, ~1.2x on protocol-bound litmus rows);
   - throughput: compiled sessions strictly faster, with the 5x
     runs/sec aspiration reported but not expected to be met: byte
     identity pins the event schedule, the per-event engine cost is
     shared by both walkers, and only single-proc local stretches may
     use the certified inline fast path — so the measured win is ~2x
     where the frontend dominates and parity on protocol-bound rows.

   A session replays a run that drew no randomness for every later seed
   (DESIGN.md: stateful machine path), so a row whose machine draws
   nothing would time replays, not the frontend.  Each row reports how
   many of its timed session runs were replays, and the allocation and
   speedup figures are taken over rows with none.

   Results go to stdout and BENCH_machpath.json; CI gates the identity
   flags always and the allocation target plus a strictly-faster
   throughput floor at full bounds. *)

module M = Wo_machines.Machine
module P = Wo_machines.Presets
module L = Wo_litmus.Litmus
module Sweep = Wo_workload.Sweep
module J = Wo_obs.Json

let now () = Unix.gettimeofday ()

let fingerprint (r : M.result) =
  Digest.string (Marshal.to_string r [ Marshal.Closures ])

(* --- throughput and allocation: fresh AST vs compiled session --------------- *)

type row = {
  r_program : string;
  r_machine : string;
  r_runs : int;
  ast_seconds : float;
  ast_bytes_per_run : float;
  compiled_seconds : float;
  compiled_bytes_per_run : float;
  speedup : float;  (** compiled runs/sec over fresh-AST runs/sec *)
  alloc_ratio : float;  (** fresh-AST bytes/run over compiled bytes/run *)
  replayed : int;  (** timed session runs answered by replay *)
  r_identical : bool;  (** per-seed result fingerprints equal *)
}

let measure_loop ~runs ~base_seed f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  for seed = base_seed to base_seed + runs - 1 do
    ignore (f ~seed : M.result)
  done;
  let seconds = now () -. t0 in
  let bytes = Gc.allocated_bytes () -. a0 in
  (seconds, bytes /. float_of_int runs)

let measure ~runs ~name (machine : M.t) program =
  (* Fingerprint identity first, over a seed prefix, outside the timed
     loops (Marshal would dominate both sides equally, but there is no
     reason to let it blur the measurement). *)
  let idseeds = min runs 25 in
  let session = M.new_session machine M.Compiled in
  let compiled = Wo_prog.Prog_compile.compile program in
  let identical = ref true in
  for seed = 1 to idseeds do
    if
      fingerprint (M.session_run session ~seed ?compiled program)
      <> fingerprint (M.run machine ~seed program)
    then identical := false
  done;
  let ast_seconds, ast_bpr =
    measure_loop ~runs ~base_seed:1 (fun ~seed -> M.run machine ~seed program)
  in
  let replays0 = M.session_replays () in
  let compiled_seconds, compiled_bpr =
    measure_loop ~runs ~base_seed:1 (fun ~seed ->
        M.session_run session ~seed ?compiled program)
  in
  let replayed = M.session_replays () - replays0 in
  {
    r_program = name;
    r_machine = machine.M.name;
    r_runs = runs;
    ast_seconds;
    ast_bytes_per_run = ast_bpr;
    compiled_seconds;
    compiled_bytes_per_run = compiled_bpr;
    speedup =
      (if compiled_seconds <= 0.0 then 0.0 else ast_seconds /. compiled_seconds);
    alloc_ratio = (if compiled_bpr <= 0.0 then 0.0 else ast_bpr /. compiled_bpr);
    replayed;
    r_identical = !identical;
  }

(* --- campaign identity across engines and domain counts --------------------- *)

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

let campaign_fp ~engine ~domains ~machines ~runs tests =
  let c = Sweep.litmus_campaign ~runs ~base_seed:1 ~domains ~engine ~machines tests in
  List.map (fun (cell : Sweep.litmus_cell) -> report_fp cell.Sweep.report) c.Sweep.cells

let campaign_identity ~runs ~domains_list ~machines tests =
  let reference = campaign_fp ~engine:M.Ast ~domains:1 ~machines ~runs tests in
  List.for_all
    (fun engine ->
      List.for_all
        (fun domains ->
          campaign_fp ~engine ~domains ~machines ~runs tests = reference)
        domains_list)
    [ M.Ast; M.Compiled ]

(* --- the experiment --------------------------------------------------------- *)

let run () =
  Wo_report.Table.heading
    "E17 / compiled machine path — int-coded frontends, reusable sessions";
  let runs = Exp_common.scaled 1500 60 in
  (* Two program families.  The litmus rows exercise the protocol-bound
     regime, where the session win is construction amortization; the
     compute row — a counting spin loop per processor, the shape of a
     backoff or a software barrier — is frontend-bound, where the
     compiled int-coded walker replaces per-iteration list concatenation,
     register-map lookups, and a fresh closure per step. *)
  let compute ~iters ~procs =
    let module I = Wo_prog.Instr in
    Wo_prog.Program.make
      ~name:(Printf.sprintf "compute%d" iters)
      (List.init procs (fun p ->
           [
             I.Assign (0, I.Const 0);
             I.While
               ( I.Lt (I.Reg 0, I.Const iters),
                 [ I.Assign (0, I.Add (I.Reg 0, I.Const 1)) ] );
             I.Write (p, I.Reg 0);
           ]))
  in
  let of_litmus (t : L.t) = (t.L.name, t.L.program) in
  let grid =
    (if Exp_common.quick then
       [
         (P.wo_new, of_litmus L.figure1);
         (P.wo_new, ("compute200x2", compute ~iters:200 ~procs:2));
       ]
     else
       [
         (P.wo_new, of_litmus L.figure1);
         (P.wo_new, of_litmus L.dekker_sync);
         (P.sc_dir, of_litmus L.message_passing);
         (P.wo_new, of_litmus L.atomicity);
         (P.wo_new, ("compute200x2", compute ~iters:200 ~procs:2));
         (* single-proc: the engine certifies every local step for the
            inline fast path, so this row isolates the compiled walker
            against the AST walk + one-event-per-instruction oracle *)
         (P.wo_new, ("compute2000x1", compute ~iters:2000 ~procs:1));
       ])
  in
  let rows =
    List.map (fun (m, (name, program)) -> measure ~runs ~name m program) grid
  in
  Wo_report.Table.subheading
    "fresh-construction AST vs compiled session (same seeds, same results)";
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; L; R; R; R; R; R; R; R; R; L ]
    ~headers:
      [
        "test";
        "machine";
        "runs";
        "AST s";
        "sess s";
        "AST B/run";
        "sess B/run";
        "speedup";
        "alloc x";
        "replayed";
        "identical";
      ]
    (List.map
       (fun r ->
         [
           r.r_program;
           r.r_machine;
           string_of_int r.r_runs;
           Printf.sprintf "%.3f" r.ast_seconds;
           Printf.sprintf "%.3f" r.compiled_seconds;
           Printf.sprintf "%.0f" r.ast_bytes_per_run;
           Printf.sprintf "%.0f" r.compiled_bytes_per_run;
           Printf.sprintf "%.1fx" r.speedup;
           Printf.sprintf "%.1fx" r.alloc_ratio;
           string_of_int r.replayed;
           Exp_common.yes_no r.r_identical;
         ])
       rows);
  let all_identical = List.for_all (fun r -> r.r_identical) rows in
  (* Replayed runs skip the frontend entirely; only rows that simulated
     every timed run measure it. *)
  let simulated = List.filter (fun r -> r.replayed = 0) rows in
  let best_speedup = List.fold_left (fun a r -> max a r.speedup) 0.0 simulated in
  let best_alloc = List.fold_left (fun a r -> max a r.alloc_ratio) 0.0 simulated in
  let speedup_met = best_speedup >= 5.0 in
  let alloc_met = best_alloc >= 3.0 in
  Printf.printf
    "\nover the %d of %d rows without replays: best speedup %.1fx (target \
     5x), best allocation ratio %.1fx (target 3x)%s\n\n"
    (List.length simulated) (List.length rows) best_speedup best_alloc
    (if Exp_common.quick then " — quick mode, perf not gated" else "");
  (* Campaign identity: the sweep front door reports the same bytes per
     cell at every engine and every domain count. *)
  let domains = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let sweep_identical =
    campaign_identity
      ~runs:(Exp_common.scaled 20 6)
      ~domains_list:[ 1; domains ]
      ~machines:[ P.sc_dir; P.wo_new ]
      (if Exp_common.quick then [ L.figure1; L.dekker_sync ] else L.all)
  in
  Printf.printf
    "sweep campaigns identical across engines and domain counts (1, %d): %b\n\n"
    domains sweep_identical;
  Printf.printf
    "machine counters: %d runs, %d session reuses, %d session replays, %d \
     compile fallbacks\n\n"
    (M.runs ()) (M.session_reuses ()) (M.session_replays ())
    (M.compile_fallbacks ());
  let row_json r =
    J.Obj
      [
        ("test", J.String r.r_program);
        ("machine", J.String r.r_machine);
        ("runs", J.Int r.r_runs);
        ("ast_seconds", J.Float r.ast_seconds);
        ("ast_bytes_per_run", J.Float r.ast_bytes_per_run);
        ("session_seconds", J.Float r.compiled_seconds);
        ("session_bytes_per_run", J.Float r.compiled_bytes_per_run);
        ("speedup", J.Float r.speedup);
        ("alloc_ratio", J.Float r.alloc_ratio);
        ("replayed", J.Int r.replayed);
        ("identical", J.Bool r.r_identical);
      ]
  in
  Exp_common.write_metrics ~experiment:"e17" ~path:"BENCH_machpath.json"
    [
      ("quick", J.Bool Exp_common.quick);
      ("rows", J.List (List.map row_json rows));
      ("all_identical", J.Bool all_identical);
      ("gated_rows", J.Int (List.length simulated));
      ("best_speedup", J.Float best_speedup);
      ("best_alloc_ratio", J.Float best_alloc);
      ("speedup_target_met", J.Bool speedup_met);
      ("alloc_target_met", J.Bool alloc_met);
      ("sweep_identical", J.Bool sweep_identical);
      ( "machine_counters",
        J.Obj
          [
            ("machine.runs", J.Int (M.runs ()));
            ("machine.session_reuse", J.Int (M.session_reuses ()));
            ("machine.session_replays", J.Int (M.session_replays ()));
            ("machine.compile_fallbacks", J.Int (M.compile_fallbacks ()));
          ] );
    ];
  print_endline
    "Expected: every identity flag true (sessions and the compiled\n\
     frontend are optimizations, not semantics changes); >=3x fewer\n\
     allocated bytes/run at full bounds, and compiled sessions strictly\n\
     faster where the frontend dominates (byte identity pins the event\n\
     schedule, so protocol-bound rows sit near parity).  Both figures\n\
     count only rows with 0 replayed runs; every row here runs on a\n\
     jittered network, so none replays."
