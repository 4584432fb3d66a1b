(* Experiment E8 — the software route to sequential consistency
   (Section 2.1: Shasha & Snir).

   "Shasha and Snir have proposed a software algorithm to ensure
   sequential consistency.  Their scheme statically identifies a minimal
   set of pairs of accesses within a process, such that delaying the issue
   of one of the elements in each pair until the other is globally
   performed guarantees sequential consistency."

   We run the racy litmus tests on the weak machines, then apply the
   delay-set analysis, insert the fences it demands, and run again: the
   violations must vanish on every machine, because fences wait for all
   previous accesses to perform globally.  The fence counts show the
   analysis is selective — IRIW's writers, for instance, need none. *)

module M = Wo_machines.Machine
module L = Wo_litmus.Litmus

let runs = 200

(* Message passing needs a heavy-tailed network to misbehave at
   observable rates (see DESIGN.md): the data write's invalidation has to
   lose a race against a multi-hop chain. *)
let spiky_net_cache =
  Wo_machines.Coherent.make ~name:"net-cache-spiky"
    ~description:"Figure-1 configuration 4 over a heavy-tailed network"
    ~sequentially_consistent:false ~weakly_ordered_drf0:false
    {
      Wo_machines.Presets.net_cache_config with
      Wo_machines.Coherent.fabric =
        Wo_machines.Coherent.Net_spiky
          { base = 3; jitter = 6; spike_probability = 0.1; spike_factor = 20 };
    }

(* The polling-consumer variant of message passing, warmed (same program as
   examples/quickstart.ml's racy half, restated here to keep the bench
   self-contained). *)
let mp_polling =
  let module I = Wo_prog.Instr in
  let module N = Wo_prog.Names in
  let warm = [ I.Read (N.r4, N.x); I.Read (N.r5, N.y) ] in
  {
    L.name = "mp-polling";
    description = "warmed message passing with a polling consumer";
    program =
      Wo_prog.Program.make ~name:"mp-polling" ~observable:[ (1, N.r0) ]
        [
          warm @ Wo_prog.Snippets.local_work 8
          @ [ I.Write (N.x, I.Const 42); I.Write (N.y, I.Const 1) ];
          warm
          @ [
              I.Assign (N.r1, I.Const 0);
              I.While (I.Eq (I.Reg N.r1, I.Const 0), [ I.Read (N.r1, N.y) ]);
              I.Read (N.r0, N.x);
            ];
        ];
    drf0 = false;
    loops = true;
    interesting = [];
  }

let cases =
  [
    (Wo_machines.Presets.bus_nocache_wb, L.figure1);
    (Wo_machines.Presets.net_nocache_weak, L.figure1);
    (Wo_machines.Presets.bus_cache_wb, L.figure1_warmed);
    (Wo_machines.Presets.net_cache_relaxed, L.figure1_warmed);
    (spiky_net_cache, L.figure1_warmed);
  ]

let count_violations machine program sc =
  let v = ref 0 in
  for seed = 1 to runs do
    let r = M.run machine ~seed program in
    if
      not
        (List.exists
           (fun o -> Wo_prog.Outcome.compare o r.M.outcome = 0)
           sc)
    then incr v
  done;
  !v

let total_gaps (program : Wo_prog.Program.t) =
  Array.fold_left
    (fun acc instrs -> acc + max 0 (List.length instrs - 1))
    0 program.Wo_prog.Program.threads

let rows () =
  List.map
    (fun ((machine : M.t), (test : L.t)) ->
      let program = test.L.program in
      (* fences are no-ops on the idealized architecture, so the fenced
         program has the same SC outcome set *)
      let sc, _ = Wo_prog.Enumerate.outcomes_stateful ~domains:1 program in
      let fenced = Wo_prog.Delay_set.insert_fences program in
      let fences = List.length (Wo_prog.Delay_set.fence_positions program) in
      [
        test.L.name;
        machine.M.name;
        Exp_common.pct (count_violations machine program sc) runs;
        Exp_common.pct (count_violations machine fenced sc) runs;
        Printf.sprintf "%d/%d" fences (total_gaps program);
      ])
    cases

(* The polling consumer's SC set cannot be enumerated (spin loop); under SC
   the consumer can only read 42 once the poll succeeded. *)
let polling_rows () =
  let program = mp_polling.L.program in
  (* the loop body is control flow, so the static analysis cannot fence the
     consumer; fence the producer side by hand where the analysis of the
     loop-free variant says (between the data write and the flag write) and
     after the poll loop *)
  let module I = Wo_prog.Instr in
  let module N = Wo_prog.Names in
  let warm = [ I.Read (N.r4, N.x); I.Read (N.r5, N.y) ] in
  let fenced =
    Wo_prog.Program.make ~name:"mp-polling+fences" ~observable:[ (1, N.r0) ]
      [
        warm @ Wo_prog.Snippets.local_work 8
        @ [ I.Write (N.x, I.Const 42); I.Fence; I.Write (N.y, I.Const 1) ];
        warm
        @ [
            I.Assign (N.r1, I.Const 0);
            I.While (I.Eq (I.Reg N.r1, I.Const 0), [ I.Read (N.r1, N.y) ]);
            I.Fence;
            I.Read (N.r0, N.x);
          ];
      ]
  in
  let stale p =
    let v = ref 0 in
    for seed = 1 to runs do
      let r = M.run spiky_net_cache ~seed p in
      if Wo_prog.Outcome.register r.M.outcome 1 N.r0 = Some 0 then incr v
    done;
    !v
  in
  [
    [
      "mp-polling";
      "net-cache-spiky";
      Exp_common.pct (stale program) runs;
      Exp_common.pct (stale fenced) runs;
      "2 (manual)";
    ];
  ]

let run () =
  Wo_report.Table.heading
    "E8 / Section 2.1 — Shasha-Snir delay sets: fencing racy programs \
     back to SC";
  Printf.printf
    "%d seeded runs per cell; 'violations' are outcomes outside the \
     enumerated SC set.\n\n"
    runs;
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; L; R; R; R ]
    ~headers:
      [ "litmus"; "machine"; "unfenced"; "fenced"; "fences/gaps" ]
    (rows () @ polling_rows ());
  (* show one analysis in full *)
  Wo_report.Table.subheading "the analysis on figure1 (store buffering)";
  print_newline ();
  List.iter
    (fun d -> Format.printf "  %a@." Wo_prog.Delay_set.pp_delay d)
    (Wo_prog.Delay_set.analyse L.figure1.L.program);
  Format.printf "@.%a@."
    Wo_prog.Program.pp
    (Wo_prog.Delay_set.insert_fences L.figure1.L.program);
  print_endline
    "Expected: every weak machine violates unfenced and never violates\n\
     fenced; the fence counts stay well below one-per-gap (the point of\n\
     the analysis), e.g. IRIW's writers need no fences at all."
