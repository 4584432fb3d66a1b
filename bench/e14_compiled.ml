(* Experiment E14 — the compiled hot path.

   PR 6 compiles programs once to flat int-coded ops (Prog_compile),
   executes them with an int-array interpreter (Cinterp), keys the
   visited table on packed varint encodings instead of Marshal, and
   moves the table itself off-heap (fingerprint slots in a Bigarray,
   keys in a bump-allocated Bytes arena).  This experiment asserts, in
   order of importance:

   - identity: the compiled engine's outcome sets, DRF0 verdicts and
     racy reports are bit-identical to the AST engine's (the one-domain
     stateful walks of the test-only wo_oracle library; E12 ties the
     compiled search to the tree oracles), at one and several domains;
   - throughput: >=10x states/sec over the AST stateful path on the E12
     convergent family at full bounds;
   - capacity: a single-domain search sustains >=10^7 distinct visited
     states, with the OCaml heap staying within 2x the key arena's own
     footprint (the table's point: state storage invisible to the GC).

   Results go to stdout and BENCH_compiled.json; CI gates on the
   identity flags in quick mode and additionally on the throughput and
   capacity targets at full bounds. *)

module I = Wo_prog.Instr
module P = Wo_prog.Program
module En = Wo_prog.Enumerate
module Ref = Wo_oracle.Enum_ref
module C = Wo_prog.Cinterp
module PC = Wo_prog.Prog_compile
module V = Wo_prog.Visited
module L = Wo_litmus.Litmus
module J = Wo_obs.Json

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The E12 families (same shapes, larger members).  Convergent: every
   processor writes the same value sequence to one location, so the DAG
   collapses the multinomial tree to the product of progress counters —
   the family where dedup, and hence key+table cost, dominates. *)
let convergent ~procs ~ops =
  P.make
    ~name:(Printf.sprintf "convergent-%dx%d" procs ops)
    (List.init procs (fun _ -> List.init ops (fun _ -> I.Write (0, I.Const 1))))

let mirrored_sync ~procs ~ops =
  P.make
    ~name:(Printf.sprintf "mirrored-sync-%dx%d" procs ops)
    (List.init procs (fun _ ->
         List.init ops (fun _ -> I.Sync_write (0, I.Const 1))))

(* --- identity: compiled vs AST engine --------------------------------------- *)

type identity_row = {
  id_program : string;
  id_compilable : bool;
  outcomes_equal : bool;
  verdict_equal : bool;
  report_equal : bool;  (** compiled racy report = AST report, all domain counts *)
}

let identity_check domains_list program =
  let ast_outs, _ = Ref.outcomes_stateful program in
  let ast_verdict, _ = Ref.check_drf0_stateful program in
  let per_domain =
    List.map
      (fun domains ->
        let outs, _ = En.outcomes_stateful ~domains program in
        let verdict, _ = En.check_drf0_stateful ~domains program in
        let verdict_nosym, _ =
          En.check_drf0_stateful ~symmetry:false ~domains program
        in
        ( Ref.outcome_sets_equal ast_outs outs,
          (verdict = Ok ()) = (ast_verdict = Ok ())
          && (verdict_nosym = Ok ()) = (ast_verdict = Ok ()),
          Ref.reports_agree ast_verdict verdict ))
      domains_list
  in
  {
    id_program = program.P.name;
    id_compilable = PC.compilable program;
    outcomes_equal = List.for_all (fun (o, _, _) -> o) per_domain;
    verdict_equal = List.for_all (fun (_, v, _) -> v) per_domain;
    report_equal = List.for_all (fun (_, _, r) -> r) per_domain;
  }

(* --- throughput: states/sec, compiled vs AST -------------------------------- *)

type throughput_row = {
  th_program : string;
  th_max_events : int;
  ast_states : int;
  compiled_states : int;
  ast_seconds : float;
  compiled_seconds : float;
  ast_sps : float;
  compiled_sps : float;
  th_ratio : float;
  th_identical : bool;  (** outcome sets / verdicts bit-identical *)
}

let sps states seconds =
  if seconds <= 0.0 then 0.0 else float_of_int states /. seconds

(* Outcome collection over a convergent member at full bounds, one
   domain each way so the ratio measures the engine, not the
   scheduler. *)
let measure_outcome_throughput program ~max_events =
  let (ast_outs, ast_stats), ast_seconds =
    time (fun () -> Ref.outcomes_stateful ~max_events program)
  in
  let (c_outs, c_stats), compiled_seconds =
    time (fun () -> En.outcomes_stateful ~domains:1 ~max_events program)
  in
  let ast_sps = sps ast_stats.En.sf_states ast_seconds in
  let compiled_sps = sps c_stats.En.sf_states compiled_seconds in
  {
    th_program = program.P.name;
    th_max_events = max_events;
    ast_states = ast_stats.En.sf_states;
    compiled_states = c_stats.En.sf_states;
    ast_seconds;
    compiled_seconds;
    ast_sps;
    compiled_sps;
    th_ratio = (if ast_sps <= 0.0 then 0.0 else compiled_sps /. ast_sps);
    th_identical = Ref.outcome_sets_equal ast_outs c_outs;
  }

(* DRF0 quantification over a mirrored-sync member (informational — the
   gate is on the convergent/outcome rows, where key cost dominates). *)
let measure_drf0_throughput program ~max_events =
  let (ast_r, ast_stats), ast_seconds =
    time (fun () -> Ref.check_drf0_stateful ~max_events program)
  in
  let (c_r, c_stats), compiled_seconds =
    time (fun () -> En.check_drf0_stateful ~domains:1 ~max_events program)
  in
  let ast_sps = sps ast_stats.En.sf_states ast_seconds in
  let compiled_sps = sps c_stats.En.sf_states compiled_seconds in
  {
    th_program = program.P.name;
    th_max_events = max_events;
    ast_states = ast_stats.En.sf_states;
    compiled_states = c_stats.En.sf_states;
    ast_seconds;
    compiled_seconds;
    ast_sps;
    compiled_sps;
    th_ratio = (if ast_sps <= 0.0 then 0.0 else compiled_sps /. ast_sps);
    th_identical = (ast_r = Ok ()) = (c_r = Ok ());
  }

(* --- capacity: 10^7 states off-heap ----------------------------------------- *)

(* A single-domain DAG walk over the public Cinterp + Visited API, so
   the table is still reachable when the heap is measured (inside the
   enumerator the table dies with the call).  Convergent programs have
   no silent steps and fully dependent accesses, so plain child
   generation visits exactly the distinct-pc-vector states. *)
type capacity_row = {
  cap_program : string;
  cap_distinct : int;
  cap_seconds : float;
  cap_arena_bytes : int;
  cap_live_bytes : int;  (** live OCaml heap after the walk, table alive *)
  cap_heap_over_arena : float;
}

let measure_capacity program =
  let cp =
    match PC.compile program with
    | Some cp -> cp
    | None -> failwith "capacity program must be compilable"
  in
  let tbl = V.create () in
  let states = ref 0 in
  let t0 = now () in
  let rec go st =
    match V.try_claim tbl (C.exact_key st) 0 with
    | `Skip -> ()
    | `Explore _ ->
      incr states;
      List.iter (fun p -> go (fst (C.step st p))) (C.runnable st)
  in
  go (C.init cp);
  let cap_seconds = now () -. t0 in
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  let arena = V.arena_bytes tbl in
  {
    cap_program = program.P.name;
    cap_distinct = V.size tbl;
    cap_seconds;
    cap_arena_bytes = arena;
    cap_live_bytes = live_words * (Sys.word_size / 8);
    cap_heap_over_arena =
      (if arena = 0 then 0.0
       else float_of_int (live_words * (Sys.word_size / 8)) /. float_of_int arena);
  }

(* --- observability ---------------------------------------------------------- *)

(* One compiled run under a live recorder: the new counters
   (compiled.states_per_sec, visited.arena_bytes, the visited.probe_len
   histogram) land in the trace next to the PR-4 Enum counters. *)
let obs_counters program =
  let recorder = Wo_obs.Recorder.create () in
  ignore
    (Wo_obs.Recorder.with_sink recorder (fun () ->
         En.check_drf0_stateful ~domains:1 program));
  List.filter_map
    (function
      | Wo_obs.Recorder.Counter { name; value; track; _ }
        when String.length name >= 8
             && (String.sub name 0 8 = "compiled"
                || String.sub name 0 7 = "visited") ->
        Some
          (J.Obj
             [
               ("name", J.String name);
               ("track", J.Int track);
               ("value", J.Int value);
             ])
      | _ -> None)
    (Wo_obs.Recorder.events recorder)

(* --- the experiment --------------------------------------------------------- *)

let run () =
  Wo_report.Table.heading
    "E14 / compiled hot path — int-coded programs, packed keys, off-heap table";
  let domains = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let identity_domains = [ 1; domains ] in
  let identity_programs =
    [
      L.figure1.L.program;
      L.message_passing.L.program;
      L.dekker_sync.L.program;
      L.atomicity.L.program;
      L.coherence.L.program;
      L.two_plus_two_w.L.program;
      convergent ~procs:2 ~ops:4;
      mirrored_sync ~procs:3 ~ops:2;
    ]
  in
  let identity_rows =
    List.map (identity_check identity_domains) identity_programs
  in
  Wo_report.Table.subheading
    "identity: compiled engine vs. the AST engine (outcomes, verdicts, reports)";
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; L; L; L; L ]
    ~headers:[ "program"; "compilable"; "outcomes"; "verdict"; "report" ]
    (List.map
       (fun r ->
         [
           r.id_program;
           Exp_common.yes_no r.id_compilable;
           Exp_common.yes_no r.outcomes_equal;
           Exp_common.yes_no r.verdict_equal;
           Exp_common.yes_no r.report_equal;
         ])
       identity_rows);
  let all_identity =
    List.for_all
      (fun r ->
        r.id_compilable && r.outcomes_equal && r.verdict_equal
        && r.report_equal)
      identity_rows
  in
  Printf.printf "\nall identity flags: %b\n\n" all_identity;
  (* Throughput: convergent members at full bounds sized so the AST
     engine runs for whole seconds (quick mode shrinks them; the 10x
     gate applies to full bounds only). *)
  (* The headline member is long and narrow (2x200): the AST engine's
     per-state cost grows with the remaining program length (Marshal of
     the thread suffixes), while the compiled key is a handful of
     varints regardless — this is exactly the scaling the int coding
     buys.  The wider members show the ratio holds (lower, since AST
     keys are shorter) as branching grows. *)
  let outcome_members =
    if Exp_common.quick then [ (convergent ~procs:2 ~ops:8, 16) ]
    else
      [
        (convergent ~procs:2 ~ops:200, 2 * 200);
        (convergent ~procs:3 ~ops:40, 3 * 40);
        (convergent ~procs:4 ~ops:16, 4 * 16);
      ]
  in
  let drf0_members =
    if Exp_common.quick then [ (mirrored_sync ~procs:3 ~ops:2, 64) ]
    else [ (mirrored_sync ~procs:3 ~ops:4, 64) ]
  in
  let throughput_rows =
    List.map
      (fun (p, max_events) -> measure_outcome_throughput p ~max_events)
      outcome_members
    @ List.map
        (fun (p, max_events) -> measure_drf0_throughput p ~max_events)
        drf0_members
  in
  Wo_report.Table.subheading "throughput: states/sec, AST vs. compiled";
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; R; R; R; R; R; R; R; L ]
    ~headers:
      [
        "program";
        "AST states";
        "cmp states";
        "AST s";
        "cmp s";
        "AST st/s";
        "cmp st/s";
        "ratio";
        "identical";
      ]
    (List.map
       (fun r ->
         [
           r.th_program;
           string_of_int r.ast_states;
           string_of_int r.compiled_states;
           Printf.sprintf "%.3f" r.ast_seconds;
           Printf.sprintf "%.3f" r.compiled_seconds;
           Printf.sprintf "%.0f" r.ast_sps;
           Printf.sprintf "%.0f" r.compiled_sps;
           Printf.sprintf "%.1fx" r.th_ratio;
           Exp_common.yes_no r.th_identical;
         ])
       throughput_rows);
  let convergent_rows =
    List.filteri (fun i _ -> i < List.length outcome_members) throughput_rows
  in
  let best_ratio =
    List.fold_left (fun acc r -> max acc r.th_ratio) 0.0 convergent_rows
  in
  let all_throughput_identical =
    List.for_all (fun r -> r.th_identical) throughput_rows
  in
  let throughput_target_met = best_ratio >= 10.0 in
  Printf.printf
    "\nbest convergent-family throughput ratio: %.1fx (target 10x at full \
     bounds%s)\n\n"
    best_ratio
    (if Exp_common.quick then "; quick mode, not gated" else "");
  (* Capacity: >=10^7 distinct states in one table, heap within 2x the
     arena.  57^4 = 10,556,001 distinct pc vectors. *)
  let cap_program =
    if Exp_common.quick then convergent ~procs:3 ~ops:20
    else convergent ~procs:4 ~ops:56
  in
  let cap = measure_capacity cap_program in
  let capacity_target = if Exp_common.quick then 9_000 else 10_000_000 in
  let capacity_met = cap.cap_distinct >= capacity_target in
  let heap_within_2x = cap.cap_heap_over_arena <= 2.0 in
  Printf.printf
    "capacity: %s — %d distinct states in %.1fs; arena %.1f MiB, live OCaml \
     heap %.1f MiB (%.2fx arena, target <=2x)\n\n"
    cap.cap_program cap.cap_distinct cap.cap_seconds
    (float_of_int cap.cap_arena_bytes /. 1048576.0)
    (float_of_int cap.cap_live_bytes /. 1048576.0)
    cap.cap_heap_over_arena;
  let counters = obs_counters (mirrored_sync ~procs:3 ~ops:2) in
  Printf.printf "compiled-path wo_obs counters emitted by one run: %d\n\n"
    (List.length counters);
  let identity_json r =
    J.Obj
      [
        ("program", J.String r.id_program);
        ("compilable", J.Bool r.id_compilable);
        ("outcomes_equal", J.Bool r.outcomes_equal);
        ("verdict_equal", J.Bool r.verdict_equal);
        ("report_equal", J.Bool r.report_equal);
      ]
  in
  let throughput_json r =
    J.Obj
      [
        ("program", J.String r.th_program);
        ("max_events", J.Int r.th_max_events);
        ("ast_states", J.Int r.ast_states);
        ("compiled_states", J.Int r.compiled_states);
        ("ast_seconds", J.Float r.ast_seconds);
        ("compiled_seconds", J.Float r.compiled_seconds);
        ("ast_states_per_sec", J.Float r.ast_sps);
        ("compiled_states_per_sec", J.Float r.compiled_sps);
        ("ratio", J.Float r.th_ratio);
        ("identical", J.Bool r.th_identical);
      ]
  in
  Exp_common.write_metrics ~experiment:"e14" ~path:"BENCH_compiled.json"
    [
      ("quick", J.Bool Exp_common.quick);
      ("domains", J.Int domains);
      ("identity", J.List (List.map identity_json identity_rows));
      ("all_identity", J.Bool all_identity);
      ("throughput", J.List (List.map throughput_json throughput_rows));
      ("all_throughput_identical", J.Bool all_throughput_identical);
      ("best_convergent_ratio", J.Float best_ratio);
      ("throughput_target_met", J.Bool throughput_target_met);
      ( "capacity",
        J.Obj
          [
            ("program", J.String cap.cap_program);
            ("distinct_states", J.Int cap.cap_distinct);
            ("seconds", J.Float cap.cap_seconds);
            ("arena_bytes", J.Int cap.cap_arena_bytes);
            ("live_heap_bytes", J.Int cap.cap_live_bytes);
            ("heap_over_arena", J.Float cap.cap_heap_over_arena);
            ("capacity_target_met", J.Bool capacity_met);
            ("heap_within_2x", J.Bool heap_within_2x);
          ] );
      ("obs_counters", J.List counters);
    ];
  print_endline
    "Expected: identity flags all true (the compiled engine is an\n\
     optimization, not a semantics change); >=10x states/sec over the AST\n\
     stateful path on a convergent family at full bounds; >=10^7 distinct\n\
     states held off-heap with the OCaml heap within 2x the key arena."
