(* Experiment E11 — hot-path overhaul: path-incremental DRF0 checking,
   the heap-backed simulation engine, and the parallel sweep driver.

   Three independent speedups, each measured against the retained
   reference implementation with the result-equality asserted:

   - DRF0 quantifier: the tree check_drf0 threads a vector-clock
     checker through the DFS (O(P) per event, prune at first race)
     vs. check_drf0_closure (O(n^3) Warshall closure per complete
     execution).  Verdicts must be identical; the Figure-1/Dekker
     family wall-time speedup is the acceptance metric.
   - Simulation engine: the binary-heap Engine vs. Wo_oracle.Engine_ref
     (Map-of-lists) on a synthetic self-rescheduling event storm;
     execution order must be identical.  Plus per-seed trace
     determinism on a real machine (the heap must not perturb any
     simulation result).
   - Sweep driver: the catalogue x machine sweep settled store-free
     by Wo_campaign.Campaign.settle_all at 1 domain vs. the recommended
     count; verdicts must agree.

   Results go to stdout and BENCH_hotpath.json (schema wo-metrics);
   CI gates on verdict equality and family speedup >= 1. *)

module I = Wo_prog.Instr
module P = Wo_prog.Program
module En = Wo_oracle.Enum_ref
module L = Wo_litmus.Litmus
module M = Wo_machines.Machine
module Sweep = Wo_workload.Sweep
module J = Wo_obs.Json

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Same padding as E9: [k] private writes per thread — independent work
   the checker must carry vector clocks across. *)
let padded (t : L.t) k =
  let program = t.L.program in
  let threads =
    Array.to_list program.P.threads
    |> List.mapi (fun i code ->
           List.init k (fun j -> I.Write (100 + i, I.Const j)) @ code)
  in
  P.make
    ~name:(Printf.sprintf "%s+%d" program.P.name k)
    ~initial:program.P.initial
    ?observable:program.P.observable threads

(* --- DRF0: incremental vs. closure ---------------------------------------- *)

type drf0_row = {
  d_program : string;
  racy : bool;
  verdicts_equal : bool;
  inc_stats : En.stats;
  inc_seconds : float;
  clo_stats : En.stats;
  clo_seconds : float;
}

(* Sub-millisecond per check: repeat and sum so the speedups (and the CI
   gate on the family ratio) sit well above timer noise. *)
let drf0_reps = 20

let timed_reps f =
  let r = f () in
  let _, seconds =
    time (fun () ->
        for _ = 1 to drf0_reps do
          ignore (f ())
        done)
  in
  (r, seconds)

let drf0_measure program =
  let inc_res, inc_seconds =
    timed_reps (fun () -> En.check_drf0_with_stats ~max_events:64 program)
  in
  let clo_res, clo_seconds =
    timed_reps (fun () ->
        En.check_drf0_closure_with_stats ~max_events:64 program)
  in
  let verdict = function Ok (), _ -> false | Error _, _ -> true in
  {
    d_program = program.P.name;
    racy = verdict inc_res;
    verdicts_equal = verdict inc_res = verdict clo_res;
    inc_stats = snd inc_res;
    inc_seconds;
    clo_stats = snd clo_res;
    clo_seconds;
  }

let drf0_programs () =
  if Exp_common.quick then
    [
      L.figure1.L.program;
      padded L.figure1 2;
      L.dekker_sync.L.program;
      padded L.dekker_sync 2;
    ]
  else
    [
      L.figure1.L.program;
      padded L.figure1 3;
      padded L.figure1 6;
      L.dekker_sync.L.program;
      padded L.dekker_sync 3;
      padded L.dekker_sync 6;
      L.message_passing.L.program;
      padded L.message_passing 4;
    ]

let family_of rows =
  List.filter
    (fun r ->
      String.length r.d_program >= 6
      && (String.sub r.d_program 0 6 = "figure"
         || String.sub r.d_program 0 6 = "dekker"))
    rows

(* --- engine: heap vs. reference ------------------------------------------- *)

(* A self-rescheduling storm: every handler logs its id and spawns the
   next pending job at a pseudo-random delay — mostly spread over a
   cache-miss-sized window (the shape machine components produce), with
   a same-tick burst every few events so FIFO order and
   schedule-during-tick batching are both on the line.  The identical
   seed drives both engines; if their execution orders ever diverged,
   the logs would differ. *)
module Storm (E : Wo_sim.Engine.S) = struct
  let run ~events ~spread ~seed =
    let e = E.create () in
    let st = ref ((2 * seed) + 1) in
    let rand m =
      st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
      !st mod m
    in
    let order = ref [] in
    let next = ref 0 in
    let rec spawn () =
      if !next < events then begin
        let id = !next in
        incr next;
        let delay = if rand 4 = 0 then 0 else rand spread in
        E.schedule e ~delay (fun () ->
            order := id :: !order;
            (* one successor on average (sometimes 0, sometimes 2), so the
               pending set stays at its steady state — the shape real
               machine components produce: a bounded set of in-flight
               operations. *)
            match rand 4 with
            | 0 -> ()
            | 1 ->
              spawn ();
              spawn ()
            | _ -> spawn ())
      end
    in
    for _ = 1 to 256 do
      spawn ()
    done;
    (* Stragglers: if the storm dies out early, reseed. *)
    while E.pending e > 0 && !next < events do
      ignore (E.run e);
      spawn ()
    done;
    ignore (E.run e);
    List.rev !order
end

module Storm_heap = Storm (Wo_sim.Engine)
module Storm_ref = Storm (Wo_oracle.Engine_ref)

type engine_row = {
  spread : int;  (** delay range: distinct pending times per tick window *)
  heap_seconds : float;
  map_seconds : float;
  e_order_identical : bool;
}

let engine_measure ~events ~reps ~spread =
  let order_identical =
    List.for_all
      (fun seed ->
        Storm_heap.run ~events:(min events 50_000) ~spread ~seed
        = Storm_ref.run ~events:(min events 50_000) ~spread ~seed)
      [ 1; 2; 3 ]
  in
  let _, heap_seconds =
    time (fun () ->
        for seed = 1 to reps do
          ignore (Storm_heap.run ~events ~spread ~seed)
        done)
  in
  let _, map_seconds =
    time (fun () ->
        for seed = 1 to reps do
          ignore (Storm_ref.run ~events ~spread ~seed)
        done)
  in
  { spread; heap_seconds; map_seconds; e_order_identical = order_identical }

(* Per-seed determinism of a full machine run on the heap engine: the
   formatted trace (what `wo trace` prints) must be byte-identical when
   the seed repeats. *)
let trace_digests ~seeds =
  let machine = Wo_machines.Presets.wo_new in
  let program = L.dekker_sync.L.program in
  List.for_all
    (fun seed ->
      let digest () =
        let r = M.run machine ~seed program in
        Digest.string (Format.asprintf "%a" Wo_sim.Trace.pp r.M.trace)
      in
      digest () = digest ())
    (List.init seeds (fun i -> i + 1))

(* --- main ------------------------------------------------------------------ *)

let pct_speedup slow fast = if fast <= 0.0 then 0.0 else slow /. fast

let run () =
  Wo_report.Table.heading
    "E11 / hot paths — incremental DRF0, heap engine, parallel sweep";
  Wo_report.Table.subheading
    "DRF0 quantifier: path-incremental vs. per-execution closure (max_events \
     = 64)";
  print_newline ();
  let rows = List.map drf0_measure (drf0_programs ()) in
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; L; R; R; R; R; R; L ]
    ~headers:
      [
        "program";
        "racy";
        "inc states";
        "closure states";
        "inc s";
        "closure s";
        "speedup";
        "same verdict";
      ]
    (List.map
       (fun r ->
         [
           r.d_program;
           (if r.racy then "yes" else "no");
           string_of_int r.inc_stats.En.states;
           string_of_int r.clo_stats.En.states;
           Printf.sprintf "%.4f" r.inc_seconds;
           Printf.sprintf "%.4f" r.clo_seconds;
           Printf.sprintf "%.1fx" (pct_speedup r.clo_seconds r.inc_seconds);
           (if r.verdicts_equal then "yes" else "NO");
         ])
       rows);
  let family = family_of rows in
  let fam_inc = List.fold_left (fun a r -> a +. r.inc_seconds) 0.0 family in
  let fam_clo = List.fold_left (fun a r -> a +. r.clo_seconds) 0.0 family in
  let family_speedup = pct_speedup fam_clo fam_inc in
  let verdicts_identical = List.for_all (fun r -> r.verdicts_equal) rows in
  Printf.printf
    "\nFigure-1/Dekker family: incremental checking is %.1fx faster than the \
     closure oracle (%.4fs vs %.4fs), verdicts identical: %b\n\n"
    family_speedup fam_inc fam_clo verdicts_identical;
  Wo_report.Table.subheading "engine: binary heap vs. Map-of-lists reference";
  print_newline ();
  let events = Exp_common.scaled 400_000 20_000 in
  let reps = Exp_common.scaled 5 2 in
  let engine_rows =
    List.map
      (fun spread -> engine_measure ~events ~reps ~spread)
      (Exp_common.scaled [ 8; 1024; 65536 ] [ 8; 1024 ])
  in
  let order_identical =
    List.for_all (fun r -> r.e_order_identical) engine_rows
  in
  List.iter
    (fun r ->
      Printf.printf
        "storm of %d events x %d reps, delay spread %d: heap %.4fs, map \
         %.4fs (%.2fx)\n"
        events reps r.spread r.heap_seconds r.map_seconds
        (pct_speedup r.map_seconds r.heap_seconds))
    engine_rows;
  Printf.printf
    "execution order identical across all spreads and seeds: %b\n"
    order_identical;
  let trace_seeds = Exp_common.scaled 5 2 in
  let traces_deterministic = trace_digests ~seeds:trace_seeds in
  Printf.printf "machine traces byte-identical per seed (%d seeds): %b\n\n"
    trace_seeds traces_deterministic;
  Wo_report.Table.subheading "sweep driver: 1 domain vs. recommended";
  print_newline ();
  let specs =
    [
      Wo_machines.Presets.sc_dir_spec;
      Wo_machines.Presets.wo_old_spec;
      Wo_machines.Presets.wo_new_spec;
      Wo_machines.Presets.wo_new_drf1_spec;
    ]
  in
  let sweep_runs = Exp_common.scaled 50 10 in
  let sweep domains =
    let module C = Wo_campaign.Campaign in
    let config =
      { (C.default_config ~store_path:"") with
        C.runs = sweep_runs;
        domains = Some domains }
    in
    let plan = C.plan config ~specs ~cases:(List.map C.case_of_litmus L.all) in
    Array.map C.verdict_to_string (C.settle_all config plan).C.s_verdicts
  in
  let c1, sweep_1_seconds = time (fun () -> sweep 1) in
  let n_domains = max 2 (Sweep.default_domains ()) in
  let cn, sweep_n_seconds = time (fun () -> sweep n_domains) in
  let sweep_identical = c1 = cn in
  let sweep_speedup = pct_speedup sweep_1_seconds sweep_n_seconds in
  Printf.printf
    "%d cells, %d runs each: 1 domain %.3fs, %d domains %.3fs (%.2fx), \
     results identical: %b\n\n"
    (Array.length c1)
    sweep_runs sweep_1_seconds n_domains sweep_n_seconds sweep_speedup
    sweep_identical;
  let stats_json (s : En.stats) seconds =
    [
      ("states", J.Int s.En.states);
      ("executions", J.Int s.En.executions);
      ("seconds", J.Float seconds);
    ]
  in
  Exp_common.write_metrics ~experiment:"e11" ~path:"BENCH_hotpath.json"
    [
      ("quick", J.Bool Exp_common.quick);
      ( "drf0",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("program", J.String r.d_program);
                   ("racy", J.Bool r.racy);
                   ("verdicts_equal", J.Bool r.verdicts_equal);
                   ("incremental", J.Obj (stats_json r.inc_stats r.inc_seconds));
                   ("closure", J.Obj (stats_json r.clo_stats r.clo_seconds));
                   ( "speedup",
                     J.Float (pct_speedup r.clo_seconds r.inc_seconds) );
                 ])
             rows) );
      ("drf0_family_speedup", J.Float family_speedup);
      ("drf0_verdicts_identical", J.Bool verdicts_identical);
      ( "engine",
        J.Obj
          [
            ("events", J.Int events);
            ("reps", J.Int reps);
            ("order_identical", J.Bool order_identical);
            ( "storms",
              J.List
                (List.map
                   (fun r ->
                     J.Obj
                       [
                         ("spread", J.Int r.spread);
                         ("heap_seconds", J.Float r.heap_seconds);
                         ("map_seconds", J.Float r.map_seconds);
                         ( "speedup",
                           J.Float (pct_speedup r.map_seconds r.heap_seconds)
                         );
                       ])
                   engine_rows) );
          ] );
      ( "trace",
        J.Obj
          [
            ("seeds", J.Int trace_seeds);
            ("deterministic", J.Bool traces_deterministic);
          ] );
      ( "sweep",
        J.Obj
          [
            ("cells", J.Int (Array.length c1));
            ("runs", J.Int sweep_runs);
            ("domains", J.Int n_domains);
            ("seconds_1_domain", J.Float sweep_1_seconds);
            ("seconds_n_domains", J.Float sweep_n_seconds);
            ("speedup", J.Float sweep_speedup);
            ("identical", J.Bool sweep_identical);
          ] );
    ];
  print_endline
    "Expected: incremental DRF0 beats the closure oracle everywhere (>=5x\n\
     on the Figure-1/Dekker family: racy programs prune at the first racy\n\
     prefix, race-free ones drop the per-leaf O(n^3) closure).  The heap\n\
     engine executes the identical event order; it wins when pending\n\
     times are spread out (the map pays a tree rebuild per distinct\n\
     time) and concedes narrow spreads, where the map degenerates into\n\
     a handful of batched buckets.  The sweep's cells are domain-count\n\
     independent; wall-clock scaling needs real cores."
