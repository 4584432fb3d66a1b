(* Experiment E9 — enumerator throughput.

   The exhaustive interleaving enumerator is the hot path behind the DRF0
   quantifier (Definition 3) and every SC outcome set; this experiment
   measures what partial-order reduction (sleep sets over a per-step
   independence test) buys over the naive oracle: search-tree states
   explored, executions enumerated, wall time — with outcome-set equality
   asserted.  Both are the tree oracles of the test-only wo_oracle
   library; the production stateful search is measured by E12 (with its
   work-stealing [-j]) and E14.

   Programs are the Figure-1 / Dekker litmus shapes, optionally padded with
   per-processor private writes (independent work, the paper's "local
   computation" between the contended accesses).

   Results go to stdout and BENCH_enum.json (the perf trajectory for later
   PRs). *)

module I = Wo_prog.Instr
module P = Wo_prog.Program
module En = Wo_oracle.Enum_ref
module L = Wo_litmus.Litmus

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [base] with [k] private writes prepended on each thread: independent
   steps the reduced enumerator should never branch on. *)
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

type seq_row = {
  program_name : string;
  naive_stats : En.stats;
  naive_seconds : float;
  por_stats : En.stats;
  por_seconds : float;
  outcomes_equal : bool;
  distinct_outcomes : int;
}

let seq_measure program =
  let (naive_outs, naive_stats), naive_seconds =
    time (fun () -> En.outcomes_with_stats ~strategy:En.Naive program)
  in
  let (por_outs, por_stats), por_seconds =
    time (fun () -> En.outcomes_with_stats ~strategy:En.Por program)
  in
  {
    program_name = program.P.name;
    naive_stats;
    naive_seconds;
    por_stats;
    por_seconds;
    outcomes_equal = En.outcome_sets_equal naive_outs por_outs;
    distinct_outcomes = List.length por_outs;
  }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let per_sec n seconds = if seconds <= 0.0 then 0.0 else float_of_int n /. seconds

module J = Wo_obs.Json

let stats_json (s : En.stats) seconds =
  [
    ("executions", J.Int s.En.executions);
    ("states", J.Int s.En.states);
    ("truncated", J.Bool s.En.truncated);
    ("seconds", J.Float seconds);
    ("executions_per_sec", J.Float (per_sec s.En.executions seconds));
  ]

let metrics_fields seq_rows =
  [
    ("quick", J.Bool Exp_common.quick);
    ( "sequential",
      J.List
        (List.map
           (fun r ->
             J.Obj
               [
                 ("program", J.String r.program_name);
                 ("naive", J.Obj (stats_json r.naive_stats r.naive_seconds));
                 ("por", J.Obj (stats_json r.por_stats r.por_seconds));
                 ( "state_reduction",
                   J.Float (ratio r.naive_stats.En.states r.por_stats.En.states)
                 );
                 ( "speedup",
                   J.Float
                     (if r.por_seconds <= 0.0 then 0.0
                      else r.naive_seconds /. r.por_seconds) );
                 ("outcomes_equal", J.Bool r.outcomes_equal);
                 ("distinct_outcomes", J.Int r.distinct_outcomes);
               ])
           seq_rows) );
  ]

let run () =
  Wo_report.Table.heading
    "E9 / enumerator throughput — partial-order reduction";
  Wo_report.Table.subheading
    "sequential: sleep-set POR vs. the naive oracle (same outcome sets)";
  print_newline ();
  let seq_programs =
    if Exp_common.quick then
      [
        L.figure1.L.program;
        padded L.figure1 2;
        L.dekker_sync.L.program;
        padded L.dekker_sync 2;
        L.message_passing.L.program;
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
        padded L.message_passing 5;
      ]
  in
  let seq_rows = List.map seq_measure seq_programs in
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; R; R; R; R; R; R; L ]
    ~headers:
      [
        "program";
        "naive states";
        "POR states";
        "reduction";
        "naive execs";
        "POR execs";
        "POR exec/s";
        "same outcomes";
      ]
    (List.map
       (fun r ->
         [
           r.program_name;
           string_of_int r.naive_stats.En.states;
           string_of_int r.por_stats.En.states;
           Printf.sprintf "%.1fx"
             (ratio r.naive_stats.En.states r.por_stats.En.states);
           string_of_int r.naive_stats.En.executions;
           string_of_int r.por_stats.En.executions;
           Printf.sprintf "%.0f"
             (per_sec r.por_stats.En.executions r.por_seconds);
           (if r.outcomes_equal then "yes" else "NO");
         ])
       seq_rows);
  let family =
    List.filter
      (fun r ->
        String.length r.program_name >= 6
        && (String.sub r.program_name 0 6 = "figure"
           || String.sub r.program_name 0 6 = "dekker"))
      seq_rows
  in
  let fam_naive =
    List.fold_left (fun n r -> n + r.naive_stats.En.states) 0 family
  in
  let fam_por =
    List.fold_left (fun n r -> n + r.por_stats.En.states) 0 family
  in
  Printf.printf
    "\nFigure-1/Dekker family: POR explores %.1fx fewer states than the \
     naive enumerator (%d vs %d), outcome sets identical: %b\n"
    (ratio fam_naive fam_por) fam_naive fam_por
    (List.for_all (fun r -> r.outcomes_equal) family);
  print_newline ();
  Exp_common.write_metrics ~experiment:"e9" ~path:"BENCH_enum.json"
    (metrics_fields seq_rows);
  print_endline
    "Expected: POR explores the same outcome sets with far fewer states on\n\
     programs with independent work (>=5x on the padded Figure-1/Dekker\n\
     family)."
