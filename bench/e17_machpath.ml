(* Experiment E17 — the compiled machine path.

   The processor frontend steps the int-coded Prog_compile artifact
   (dense register arrays, stride-4 op decoding, no per-instruction list
   traversal), and machines run in reusable sessions that build the
   fabric and memory system once and reset them in place between seeds;
   [Machine.run] is a fresh session's first run.  This experiment
   asserts, in order of importance:

   - identity: the compiled frontend and the AST walker it replaced
     (Wo_oracle.Ast_frontend) issue the same requests at the same times
     and finish with the same registers, driven through the same
     scripted port (Wo_oracle.Scripted_port); a reused session's
     results are Marshal-fingerprint identical to fresh sessions' at
     every seed; the store-free catalogue sweep
     (Wo_campaign.Campaign.settle_all) settles byte-identical verdicts
     at every domain count;
   - allocation: >=3x fewer allocated bytes/run ([Gc.allocated_bytes])
     for the compiled frontend than for the AST walker at full bounds
     (the AST walk concatenates lists per [If]/[While] unfolding and
     builds an environment closure per evaluated instruction);
   - throughput: the compiled frontend at least 1.2x faster than the AST
     walker where the frontend dominates (the compute rows); the litmus
     rows, a few operations per thread, sit near parity.

   The session table (fresh sessions vs one reused session, per seed)
   shows the construction amortization; it is reported, not gated.  A
   session replays a run that drew no randomness for every later seed
   (DESIGN.md: stateful machine path); each session row reports how
   many of its timed runs were replays.

   Results go to stdout and BENCH_machpath.json; CI gates the identity
   flags always and the allocation and speed floors at full bounds. *)

module M = Wo_machines.Machine
module P = Wo_machines.Presets
module L = Wo_litmus.Litmus
module Port = Wo_oracle.Scripted_port
module J = Wo_obs.Json

let now () = Unix.gettimeofday ()

let fingerprint (r : M.result) =
  Digest.string (Marshal.to_string r [ Marshal.Closures ])

let measure_loop ~runs f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  for seed = 1 to runs do
    f ~seed
  done;
  let seconds = now () -. t0 in
  let bytes = Gc.allocated_bytes () -. a0 in
  (seconds, bytes /. float_of_int runs)

let ratio a b = if b <= 0.0 then 0.0 else a /. b

(* --- the frontends: AST walker vs compiled, through the scripted port ------- *)

type row = {
  r_program : string;
  r_runs : int;
  ast_seconds : float;
  ast_bytes_per_run : float;
  compiled_seconds : float;
  compiled_bytes_per_run : float;
  speedup : float;  (** compiled runs/sec over AST runs/sec *)
  alloc_ratio : float;  (** AST bytes/run over compiled bytes/run *)
  r_identical : bool;  (** per-seed request streams, registers, finish times *)
}

let measure_frontends ~runs ~name program =
  (* The artifact is compiled once, as a session memoises it. *)
  let art = Option.get (Wo_prog.Prog_compile.compile program) in
  let compiled = Port.compiled art and ast = Port.ast program in
  (* Lockstep identity first, over a seed prefix, outside the timed
     loops. *)
  let identical = ref true in
  for seed = 1 to min runs 25 do
    if Port.run ~seed program compiled <> Port.run ~seed program ast then
      identical := false
  done;
  let ast_seconds, ast_bpr =
    measure_loop ~runs (fun ~seed -> ignore (Port.run ~seed program ast))
  in
  let compiled_seconds, compiled_bpr =
    measure_loop ~runs (fun ~seed -> ignore (Port.run ~seed program compiled))
  in
  {
    r_program = name;
    r_runs = runs;
    ast_seconds;
    ast_bytes_per_run = ast_bpr;
    compiled_seconds;
    compiled_bytes_per_run = compiled_bpr;
    speedup = ratio ast_seconds compiled_seconds;
    alloc_ratio = ratio ast_bpr compiled_bpr;
    r_identical = !identical;
  }

(* --- sessions: fresh vs reused --------------------------------------------- *)

type session_row = {
  s_program : string;
  s_machine : string;
  s_runs : int;
  fresh_seconds : float;
  fresh_bytes_per_run : float;
  reused_seconds : float;
  reused_bytes_per_run : float;
  replayed : int;  (** timed reused-session runs answered by replay *)
  s_identical : bool;  (** per-seed result fingerprints equal *)
}

let measure_sessions ~runs ~name (machine : M.t) program =
  let session = M.new_session machine M.Compiled in
  let compiled = Wo_prog.Prog_compile.compile program in
  let identical = ref true in
  for seed = 1 to min runs 25 do
    if
      fingerprint (M.session_run session ~seed ?compiled program)
      <> fingerprint (M.run machine ~seed program)
    then identical := false
  done;
  let fresh_seconds, fresh_bpr =
    measure_loop ~runs (fun ~seed -> ignore (M.run machine ~seed program))
  in
  let replays0 = M.session_replays () in
  let reused_seconds, reused_bpr =
    measure_loop ~runs (fun ~seed ->
        ignore (M.session_run session ~seed ?compiled program))
  in
  {
    s_program = name;
    s_machine = machine.M.name;
    s_runs = runs;
    fresh_seconds;
    fresh_bytes_per_run = fresh_bpr;
    reused_seconds;
    reused_bytes_per_run = reused_bpr;
    replayed = M.session_replays () - replays0;
    s_identical = !identical;
  }

(* --- campaign identity across domain counts --------------------------------- *)

let campaign_fp ~domains ~specs ~runs tests =
  let module C = Wo_campaign.Campaign in
  let config =
    { (C.default_config ~store_path:"") with C.runs; domains = Some domains }
  in
  let plan = C.plan config ~specs ~cases:(List.map C.case_of_litmus tests) in
  Array.map C.verdict_to_string (C.settle_all config plan).C.s_verdicts

let campaign_identity ~runs ~domains_list ~specs tests =
  let reference = campaign_fp ~domains:1 ~specs ~runs tests in
  List.for_all
    (fun domains -> campaign_fp ~domains ~specs ~runs tests = reference)
    domains_list

(* --- the experiment --------------------------------------------------------- *)

let run () =
  Wo_report.Table.heading
    "E17 / compiled machine path — int-coded frontends, reusable sessions";
  let runs = Exp_common.scaled 1500 60 in
  (* Two program families.  The litmus rows are a few operations per
     thread; the compute row — a counting spin loop per processor, the
     shape of a backoff or a software barrier — is frontend-bound, where
     the compiled int-coded walker replaces per-iteration list
     concatenation, register-array searches, and an environment closure
     per evaluated instruction. *)
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
  let programs =
    if Exp_common.quick then
      [ of_litmus L.figure1; ("compute200x2", compute ~iters:200 ~procs:2) ]
    else
      [
        of_litmus L.figure1;
        of_litmus L.dekker_sync;
        of_litmus L.message_passing;
        of_litmus L.atomicity;
        ("compute200x2", compute ~iters:200 ~procs:2);
        (* single-proc: the engine certifies every local step for the
           inline fast path, against the AST walk's one event per
           instruction *)
        ("compute2000x1", compute ~iters:2000 ~procs:1);
      ]
  in
  let rows =
    List.map (fun (name, program) -> measure_frontends ~runs ~name program) programs
  in
  Wo_report.Table.subheading
    "AST walker vs compiled frontend, scripted port (same seeds, same requests)";
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; R; R; R; R; R; R; R; L ]
    ~headers:
      [
        "test"; "runs"; "AST s"; "comp s"; "AST B/run"; "comp B/run";
        "speedup"; "alloc x"; "identical";
      ]
    (List.map
       (fun r ->
         [
           r.r_program;
           string_of_int r.r_runs;
           Printf.sprintf "%.3f" r.ast_seconds;
           Printf.sprintf "%.3f" r.compiled_seconds;
           Printf.sprintf "%.0f" r.ast_bytes_per_run;
           Printf.sprintf "%.0f" r.compiled_bytes_per_run;
           Printf.sprintf "%.1fx" r.speedup;
           Printf.sprintf "%.1fx" r.alloc_ratio;
           Exp_common.yes_no r.r_identical;
         ])
       rows);
  let best_speedup = List.fold_left (fun a r -> max a r.speedup) 0.0 rows in
  let best_alloc = List.fold_left (fun a r -> max a r.alloc_ratio) 0.0 rows in
  let alloc_met = best_alloc >= 3.0 in
  Printf.printf
    "\nbest speedup %.1fx (floor 1.2x), best allocation ratio %.1fx (target \
     3x)%s\n\n"
    best_speedup best_alloc
    (if Exp_common.quick then " — quick mode, perf not gated" else "");
  let session_grid =
    if Exp_common.quick then [ (P.wo_new, of_litmus L.figure1) ]
    else
      [
        (P.wo_new, of_litmus L.figure1);
        (P.wo_new, of_litmus L.dekker_sync);
        (P.sc_dir, of_litmus L.message_passing);
        (P.wo_new, ("compute200x2", compute ~iters:200 ~procs:2));
      ]
  in
  let session_rows =
    List.map
      (fun (m, (name, program)) ->
        measure_sessions ~runs:(Exp_common.scaled 500 30) ~name m program)
      session_grid
  in
  Wo_report.Table.subheading
    "fresh sessions vs one reused session (same seeds, same results)";
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; L; R; R; R; R; R; R; R; L ]
    ~headers:
      [
        "test"; "machine"; "runs"; "fresh s"; "reused s"; "fresh B/run";
        "reused B/run"; "speedup"; "replayed"; "identical";
      ]
    (List.map
       (fun r ->
         [
           r.s_program;
           r.s_machine;
           string_of_int r.s_runs;
           Printf.sprintf "%.3f" r.fresh_seconds;
           Printf.sprintf "%.3f" r.reused_seconds;
           Printf.sprintf "%.0f" r.fresh_bytes_per_run;
           Printf.sprintf "%.0f" r.reused_bytes_per_run;
           Printf.sprintf "%.1fx" (ratio r.fresh_seconds r.reused_seconds);
           string_of_int r.replayed;
           Exp_common.yes_no r.s_identical;
         ])
       session_rows);
  let all_identical =
    List.for_all (fun r -> r.r_identical) rows
    && List.for_all (fun r -> r.s_identical) session_rows
  in
  (* Campaign identity: the sweep's store-free settle gives the same
     verdict bytes per cell at every domain count. *)
  let domains = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let sweep_identical =
    campaign_identity
      ~runs:(Exp_common.scaled 20 6)
      ~domains_list:[ 1; domains ]
      ~specs:[ P.sc_dir_spec; P.wo_new_spec ]
      (if Exp_common.quick then [ L.figure1; L.dekker_sync ] else L.all)
  in
  Printf.printf
    "\nsweep verdicts identical across domain counts (1, %d): %b\n\n"
    domains sweep_identical;
  Printf.printf
    "machine counters: %d runs, %d session reuses, %d session replays\n\n"
    (M.runs ()) (M.session_reuses ()) (M.session_replays ());
  let row_json r =
    J.Obj
      [
        ("test", J.String r.r_program);
        ("runs", J.Int r.r_runs);
        ("ast_seconds", J.Float r.ast_seconds);
        ("ast_bytes_per_run", J.Float r.ast_bytes_per_run);
        ("compiled_seconds", J.Float r.compiled_seconds);
        ("compiled_bytes_per_run", J.Float r.compiled_bytes_per_run);
        ("speedup", J.Float r.speedup);
        ("alloc_ratio", J.Float r.alloc_ratio);
        ("identical", J.Bool r.r_identical);
      ]
  in
  let session_json r =
    J.Obj
      [
        ("test", J.String r.s_program);
        ("machine", J.String r.s_machine);
        ("runs", J.Int r.s_runs);
        ("fresh_seconds", J.Float r.fresh_seconds);
        ("fresh_bytes_per_run", J.Float r.fresh_bytes_per_run);
        ("reused_seconds", J.Float r.reused_seconds);
        ("reused_bytes_per_run", J.Float r.reused_bytes_per_run);
        ("replayed", J.Int r.replayed);
        ("identical", J.Bool r.s_identical);
      ]
  in
  Exp_common.write_metrics ~experiment:"e17" ~path:"BENCH_machpath.json"
    [
      ("quick", J.Bool Exp_common.quick);
      ("rows", J.List (List.map row_json rows));
      ("session_rows", J.List (List.map session_json session_rows));
      ("all_identical", J.Bool all_identical);
      ("best_speedup", J.Float best_speedup);
      ("best_alloc_ratio", J.Float best_alloc);
      ("alloc_target_met", J.Bool alloc_met);
      ("sweep_identical", J.Bool sweep_identical);
      ( "machine_counters",
        J.Obj
          [
            ("machine.runs", J.Int (M.runs ()));
            ("machine.session_reuse", J.Int (M.session_reuses ()));
            ("machine.session_replays", J.Int (M.session_replays ()));
          ] );
    ];
  print_endline
    "Expected: every identity flag true (the compiled frontend and\n\
     sessions are optimizations, not semantics changes); >=3x fewer\n\
     allocated bytes/run and >=1.2x runs/sec for the compiled frontend\n\
     over the AST walker at full bounds, on the frontend-bound compute\n\
     rows (the litmus rows run a few operations per thread and sit\n\
     nearer parity)."
