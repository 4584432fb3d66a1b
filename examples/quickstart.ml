(* Quickstart: build a small parallel program, enumerate its sequentially
   consistent outcomes on the idealized architecture, check whether it
   obeys DRF0, and run it on simulated hardware — both a machine that
   breaks it and machines bound by the Definition-2 contract.

   Run with:  dune exec examples/quickstart.exe *)

module I = Wo_prog.Instr
module N = Wo_prog.Names
module M = Wo_machines.Machine

(* Message passing: P0 publishes data then sets a flag; P1 waits for the
   flag and reads the data.  First the racy version (plain accesses, no
   waiting), then the DRF0 version (the flag is a synchronization location
   and the consumer spins on it). *)

let racy =
  Wo_prog.Program.make ~name:"mp-racy"
    [
      [ I.Write (N.x, I.Const 42); I.Write (N.y, I.Const 1) ];
      [ I.Read (N.r1, N.y); I.Read (N.r0, N.x) ];
    ]

(* The same bug as it appears in real code: the consumer POLLS the flag
   with plain data reads.  Both processors first bring x and y into their
   caches (resident shared copies are the precondition for the cached
   Figure-1 configurations to misbehave). *)
let racy_polling =
  let warm = [ I.Read (N.r4, N.x); I.Read (N.r5, N.y) ] in
  Wo_prog.Program.make ~name:"mp-racy-polling" ~observable:[ (1, N.r0) ]
    [
      warm @ Wo_prog.Snippets.local_work 8
      @ [ I.Write (N.x, I.Const 42); I.Write (N.y, I.Const 1) ];
      warm
      @ [
          I.Assign (N.r1, I.Const 0);
          I.While (I.Eq (I.Reg N.r1, I.Const 0), [ I.Read (N.r1, N.y) ]);
          I.Read (N.r0, N.x);
        ];
    ]

let drf0 =
  Wo_prog.Program.make ~name:"mp-drf0" ~observable:[ (1, N.r0) ]
    [
      [ I.Write (N.x, I.Const 42); I.Sync_write (N.s, I.Const 1) ];
      [
        I.Assign (N.r1, I.Const 0);
        I.While (I.Eq (I.Reg N.r1, I.Const 0), [ I.Sync_read (N.r1, N.s) ]);
        I.Read (N.r0, N.x);
      ];
    ]

let show_program program = Format.printf "%a@.@." Wo_prog.Program.pp program

let show_sc_outcomes program =
  let outcomes, _ = Wo_prog.Enumerate.outcomes_stateful ~domains:1 program in
  Printf.printf "sequentially consistent outcomes (%d):\n"
    (List.length outcomes);
  List.iter (fun o -> Format.printf "  %a@." Wo_prog.Outcome.pp o) outcomes;
  outcomes

let run_racy_on machine =
  (* Under SC, once the poll loop has seen the flag the data is there: the
     consumer reading 0 is an outcome no sequentially consistent execution
     can produce. *)
  let stale = ref 0 in
  for seed = 1 to 300 do
    let r = M.run machine ~seed racy_polling in
    if Wo_prog.Outcome.register r.M.outcome 1 N.r0 = Some 0 then incr stale
  done;
  Printf.printf "%-18s 300 runs, %d flag-without-data outcomes\n"
    machine.M.name !stale

let run_drf0_on machine =
  (* The spin loop makes the SC outcome set non-enumerable, so we check
     the only possible SC outcome (r0 = 42) and apply the Lemma-1 oracle
     (Appendix A) to every trace. *)
  let stale = ref 0 and lemma1 = ref 0 in
  for seed = 1 to 200 do
    let r = M.run machine ~seed drf0 in
    if Wo_prog.Outcome.register r.M.outcome 1 N.r0 <> Some 42 then incr stale;
    match M.check_lemma1 r with Ok () -> () | Error _ -> incr lemma1
  done;
  Printf.printf "%-16s 200 runs, %d stale reads, %d Lemma-1 failures\n"
    machine.M.name !stale !lemma1

let () =
  Wo_report.Table.heading "Quickstart: message passing, racy vs DRF0";
  print_endline "--- the racy version ---\n";
  show_program racy;
  let sc_racy = show_sc_outcomes racy in
  (match fst (Wo_prog.Enumerate.check_drf0_stateful ~domains:1 racy) with
  | Ok () -> print_endline "DRF0: obeyed (unexpected!)\n"
  | Error report ->
    Printf.printf "DRF0: violated — %d race(s) in one idealized execution:\n"
      (List.length report.Wo_core.Drf0.races);
    List.iter
      (fun r -> Format.printf "  %a@." Wo_core.Drf0.pp_race r)
      report.Wo_core.Drf0.races;
    print_newline ());
  print_endline
    "On weak hardware the consumer can see the flag without the data\n\
     (an outcome outside the SC set):\n";
  ignore sc_racy;
  (* a heavy-tailed instance of the Figure-1 network-with-caches
     configuration (the machine zoo's configs are first-class: rebuild
     with overrides) — occasional congestion spikes let an invalidation
     be overtaken by a whole poll-and-read chain *)
  let spiky_net_cache =
    Wo_machines.Coherent.make ~name:"net-cache-spiky"
      ~description:"Figure-1 configuration 4 with a heavy-tailed network"
      ~sequentially_consistent:false ~weakly_ordered_drf0:false
      {
        Wo_machines.Presets.net_cache_config with
        Wo_machines.Coherent.fabric =
          Wo_machines.Coherent.Net_spiky
            { base = 3; jitter = 6; spike_probability = 0.1; spike_factor = 20 };
      }
  in
  List.iter run_racy_on
    [ Wo_machines.Presets.sc_dir; spiky_net_cache ];
  print_newline ();
  print_endline "--- the DRF0 version ---\n";
  show_program drf0;
  (* verify race-freedom dynamically (the spin precludes enumeration) *)
  let drf0_art = Option.get (Wo_prog.Prog_compile.compile drf0) in
  let races =
    List.filter_map
      (fun seed ->
        Wo_core.Drf0_inc.check_execution
          (Wo_prog.Cinterp.execution (Wo_prog.Cinterp.run_random ~seed drf0_art)))
      (List.init 20 Fun.id)
  in
  Printf.printf "dynamic race detection over 20 schedules: %d racy\n\n"
    (List.length races);
  print_endline
    "Every machine that is weakly ordered w.r.t. DRF0 must appear\n\
     sequentially consistent on it (Definition 2): the consumer always\n\
     reads 42, and every trace satisfies the Lemma-1 condition:\n";
  List.iter run_drf0_on
    [
      Wo_machines.Presets.wo_old;
      Wo_machines.Presets.wo_new;
      Wo_machines.Presets.wo_new_drf1;
      Wo_machines.Presets.rp3_fence;
      Wo_machines.Presets.bus_nocache_wb;
    ]
