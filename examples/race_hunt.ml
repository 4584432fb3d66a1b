(* Hunting a data race in a "mostly correct" program.

   A work-queue with a subtle bug: the producer publishes the item count
   with a plain data write instead of a synchronization operation.  The
   program usually behaves; under the right timing a consumer reads stale
   data.  We find the bug three ways, mirroring the paper's toolbox:

   1. exhaustively, with the Definition-3 checker over all idealized
      executions (for the scaled-down instance);
   2. dynamically, with the Netzer-Miller-style vector-clock race checker over
      sampled schedules (works at any scale);
   3. empirically, by running it on weakly ordered hardware until an
      outcome outside the contract appears — and then fixing the program
      and watching all three go quiet.

   Run with:  dune exec examples/race_hunt.exe *)

module I = Wo_prog.Instr
module M = Wo_machines.Machine

let item = 0
let count = 1 (* the buggy flag: a plain data location *)
let lock = 2

(* Producer: put an item, bump the count (BUG: data write).  Consumer:
   poll the count with a data read, then take the item. *)
let work_queue ~fixed =
  let publish v =
    if fixed then I.Sync_write (count, I.Const v)
    else I.Write (count, I.Const v)
  in
  let poll r =
    if fixed then I.Sync_read (r, count) else I.Read (r, count)
  in
  Wo_prog.Program.make
    ~name:(if fixed then "work-queue-fixed" else "work-queue-buggy")
    ~observable:[ (1, 0) ]
    [
      [ I.Write (item, I.Const 99); publish 1 ];
      [
        I.Assign (5, I.Const 0);
        I.While (I.Eq (I.Reg 5, I.Const 0), [ poll 5 ]);
        I.Read (0, item);
      ];
    ]

let hunt name program =
  Wo_report.Table.subheading name;
  print_newline ();
  Format.printf "%a@.@." Wo_prog.Program.pp program;
  let art = Option.get (Wo_prog.Prog_compile.compile program) in
  let idealized ~seed =
    Wo_prog.Cinterp.execution (Wo_prog.Cinterp.run_random ~seed art)
  in
  (* 1. dynamic detection over sampled schedules *)
  let races =
    List.filter_map
      (fun seed -> Wo_core.Drf0_inc.check_execution (idealized ~seed))
      (List.init 25 Fun.id)
  in
  Printf.printf "1. vector-clock race checker, 25 schedules: %d racy\n"
    (List.length races);
  (match races with
  | r :: _ -> Format.printf "   first: %a@." Wo_core.Drf0.pp_race r
  | [] -> ());
  (* 2. exhaustive checking of one execution (the spin precludes full
     enumeration; check the race on a representative execution) *)
  let report = Wo_core.Drf0.check (idealized ~seed:3) in
  Printf.printf "2. exhaustive checker on one idealized execution: %d race(s)\n"
    (List.length report.Wo_core.Drf0.races);
  (* 3. empirical: run on weakly ordered hardware with a heavy-tailed
     network (occasional congestion spikes — the timing that makes latent
     races bite in production) *)
  let machine =
    Wo_machines.Uncached.make ~name:"rp3-fence-spiky"
      ~description:"rp3-fence over a heavy-tailed network"
      ~sequentially_consistent:false ~weakly_ordered_drf0:true
      {
        Wo_machines.Uncached.fabric =
          Wo_machines.Coherent.Net_spiky
            { base = 4; jitter = 6; spike_probability = 0.1; spike_factor = 20 };
        write_buffer = None;
        wait_write_ack = false;
        flush_buffer_on_sync = true;
        modules = 4;
        local_cost = 1;
      }
  in
  let stale = ref 0 in
  for seed = 1 to 400 do
    let r = M.run machine ~seed program in
    if Wo_prog.Outcome.register r.M.outcome 1 0 <> Some 99 then incr stale
  done;
  Printf.printf
    "3. 400 runs on rp3-fence over a spiky network: %d stale item read(s)\n\n"
    !stale

let () =
  Wo_report.Table.heading "Race hunt: a buggy work queue, then the fix";
  ignore lock;
  hunt "the buggy version (count published with a data write)"
    (work_queue ~fixed:false);
  hunt "the fixed version (count is a synchronization location)"
    (work_queue ~fixed:true);
  print_endline
    "The contract view (Definition 2) explains the symptom: the buggy\n\
     program is outside DRF0, so the hardware owes it nothing; the fixed\n\
     program is inside, so every weakly ordered machine must appear\n\
     sequentially consistent to it."
