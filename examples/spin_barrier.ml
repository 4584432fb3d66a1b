(* The Section-6 story, end to end: spinning on a barrier count.

   The Section-5.3 implementation must treat every synchronization
   operation as a write, so each spin iteration acquires the line
   exclusively and the spinners serialize.  Definition-1 hardware and the
   DRF1 refinement spin on shared copies instead.  This example runs a
   sense-visible experiment: one barrier episode with a deliberately slow
   last arriver, counting protocol traffic and time.

   Run with:  dune exec examples/spin_barrier.exe *)

module I = Wo_prog.Instr
module M = Wo_machines.Machine

let procs = 4
let straggler_work = 120

(* Everyone arrives at the barrier immediately except the last processor,
   which works first — so the others spin for a long time. *)
let program =
  let counter = 10 in
  let thread p =
    (if p = procs - 1 then Wo_prog.Snippets.local_work straggler_work else [])
    @ Wo_prog.Snippets.barrier_wait ~counter ~participants:procs ~scratch:4
        ~spin:5
  in
  Wo_prog.Program.make ~name:"straggler-barrier" ~observable:[]
    (List.init procs thread)

let machines =
  Wo_machines.Presets.[ wo_old; wo_new; wo_new_drf1 ]

let stat stats name =
  match List.assoc_opt name stats with Some v -> v | None -> 0

let () =
  Wo_report.Table.heading
    "Spinning on a barrier count (Section 6): serialized vs shared spinning";
  Printf.printf
    "%d processors; the last arriver works %d cycles first, so the others\n\
     spin on the barrier count.  Averages over 20 seeds.\n\n"
    procs straggler_work;
  let rows =
    List.map
      (fun (machine : M.t) ->
        let cycles = ref 0 and msgs = ref 0 and misses = ref 0 in
        let runs = 20 in
        for seed = 1 to runs do
          let r = M.run machine ~seed program in
          cycles := !cycles + r.M.cycles;
          msgs := !msgs + stat (M.stats r) "network.messages";
          misses := !misses + stat (M.stats r) "cache.misses"
        done;
        [
          machine.M.name;
          string_of_int (!cycles / runs);
          string_of_int (!msgs / runs);
          string_of_int (!misses / runs);
        ])
      machines
  in
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; R; R; R ]
    ~headers:[ "machine"; "cycles"; "network messages"; "cache misses" ]
    rows;
  print_endline
    "wo-new treats each spin Test as a write: the barrier line ping-pongs\n\
     between spinners (watch the message and miss counts).  wo-old and\n\
     wo-new-drf1 let spinners hit on shared copies: traffic collapses to\n\
     one invalidation round per arrival.  This is exactly why Section 6\n\
     proposes the refined data-race-free model."
