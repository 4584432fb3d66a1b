(* The command-line front end.

     wo list                         catalogue of machines, litmus tests,
                                     workloads
     wo litmus figure1 -m wo-new     run a litmus test on a machine and
                                     compare against the SC outcome set
     wo races message-passing        check a litmus program against DRF0
     wo check dekker-sync -j 4
                                     exhaustive DRF0 check: DAG search with
                                     canonical state hashing, symmetry
                                     reduction and work-stealing domains
     wo workload critical-section -m sc-dir
                                     run a workload, validate its invariant
     wo trace figure3 -m wo-new      dump one run's operation timeline
     wo trace figure3 --format=perfetto -o t.json
                                     export the run as Chrome trace-event
                                     JSON (open in Perfetto / chrome://tracing)

   Exit codes: 0 success, 1 usage error (unknown test / machine /
   workload name), 2 property failure (non-SC outcome, race, broken
   invariant), 3 machine error (simulated deadlock / protocol failure),
   124 malformed command line (cmdliner's own convention). *)

open Cmdliner

module M = Wo_machines.Machine
module L = Wo_litmus.Litmus

let machine_names =
  List.map
    (fun (m : M.t) -> m.M.name)
    (Wo_machines.Presets.all @ Wo_machines.Presets.models)

let machine_arg =
  let doc =
    Printf.sprintf "Machine to simulate; one of: %s."
      (String.concat ", " machine_names)
  in
  Arg.(value & opt string "wo-new" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let machine_file_doc =
  "Load the machine from a JSON spec file instead of the presets (fabric, \
   memory organisation, sync policy; see examples/machines/*.json and `wo \
   list --machines --json' for the schema)."

let machine_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "machine-file" ] ~docv:"FILE" ~doc:machine_file_doc)

let machine_files_arg =
  Arg.(
    value & opt_all file []
    & info [ "machine-file" ] ~docv:"FILE"
        ~doc:(machine_file_doc ^ " Repeatable; adds to $(b,-m)."))

(* Counts that must be at least 1 (run batches, shard sizes): zero or a
   negative value is a usage error (exit 124), never a vacuous pass. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ ->
      Error
        (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let runs_arg =
  Arg.(
    value & opt positive_int 100
    & info [ "n"; "runs" ] ~docv:"N"
        ~doc:"Number of seeded runs; seeds are $(i,SEED)..$(i,SEED)+$(docv)-1.")

(* Shared by sweep/campaign: the ordering-model grid axis. *)
let models_arg =
  Arg.(
    value & opt (list string) []
    & info [ "models" ] ~docv:"M1,M2,..."
        ~doc:
          "Comma-separated hardware ordering models ($(b,sc), $(b,tso), \
           $(b,pso), $(b,ra)) to cross with the selected machines: each \
           spec expands into one grid point per model.  Relaxed points \
           run the store-buffer backends over uncached memory and are \
           named $(i,machine)/$(i,fabric)+$(i,sync)@$(i,model).")

let parse_models = function
  | [] -> None
  | names ->
    Some
      (List.map
         (fun n ->
           match Wo_machines.Spec.model_of_string n with
           | Some m -> m
           | None ->
             prerr_endline
               (Printf.sprintf
                  "unknown ordering model %S; try one of: sc, tso, pso, ra" n);
             exit 1)
         names)

let expand_models model_names specs =
  match parse_models model_names with
  | None -> specs
  | Some models ->
    List.concat_map (fun s -> Wo_machines.Spec.grid ~models s) specs

let seed_doc =
  "Base seed for the deterministic simulation; the same seed always \
   reproduces the same run."

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:seed_doc)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Also write a versioned wo-metrics JSON document (schema \
           $(b,wo-metrics)) to $(docv).")

(* Metrics-envelope fields every machine-running command records: the
   engine and the process-wide machine counters (also emitted to the
   active recorder, for trace consumers). *)
let machine_fields () =
  M.emit_counters ();
  [
    ("engine", Wo_obs.Json.String (M.engine_name M.Compiled));
    ( "machine_counters",
      Wo_obs.Json.Obj
        [
          ("machine.runs", Wo_obs.Json.Int (M.runs ()));
          ("machine.session_reuse", Wo_obs.Json.Int (M.session_reuses ()));
          ( "machine.compile_fallbacks",
            Wo_obs.Json.Int (M.compile_fallbacks ()) );
        ] );
  ]

(* A Machine_error is a finding about the simulated hardware (deadlock,
   protocol violation), not a usage error: report it and exit 3. *)
let machine_errors f =
  try f () with
  | M.Machine_error msg ->
    Printf.eprintf "machine error: %s\n" msg;
    exit 3

let get_machine name =
  match Wo_machines.Presets.find name with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown machine %S; try one of: %s" name
         (String.concat ", " machine_names))

let get_litmus name =
  match L.find name with
  | Some t -> Ok t
  | None ->
    Error
      (Printf.sprintf "unknown litmus test %S; try one of: %s" name
         (String.concat ", " (List.map (fun (t : L.t) -> t.L.name) L.all)))

let load_spec path =
  match Wo_machines.Spec.of_file path with
  | Ok spec -> Ok spec
  | Error e -> Error (Printf.sprintf "machine spec: %s" e)

(* [--machine-file] wins over [-m] when both are given. *)
let resolve_machine name = function
  | None -> get_machine name
  | Some path -> Result.map Wo_machines.Spec.build (load_spec path)

let get_spec name =
  match Wo_machines.Presets.spec_of name with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown machine %S; try one of: %s" name
         (String.concat ", " machine_names))

let get_workload name =
  match
    List.find_opt
      (fun (w : Wo_workload.Workload.t) -> w.Wo_workload.Workload.name = name)
      Wo_workload.Workload.all
  with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown workload %S; try one of: %s" name
         (String.concat ", "
            (List.map
               (fun (w : Wo_workload.Workload.t) -> w.Wo_workload.Workload.name)
               Wo_workload.Workload.all)))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit 1

(* --- wo list ------------------------------------------------------------- *)

let list_cmd =
  let machines_only_arg =
    Arg.(
      value & flag
      & info [ "machines" ] ~doc:"List only the machines (skip litmus tests and workloads).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the preset machine specs as a JSON list (the schema \
             accepted by $(b,--machine-file)); implies $(b,--machines).")
  in
  let rec run machines_only json =
    if json then
      print_endline
        (Wo_obs.Json.to_string ~pretty:true
           (Wo_obs.Json.List
              (List.map Wo_machines.Spec.to_json
                 (Wo_machines.Presets.specs @ Wo_machines.Presets.model_specs))))
    else begin
      let model_of (m : M.t) =
        match Wo_machines.Presets.spec_of m.M.name with
        | Some s -> Wo_machines.Spec.model_to_string s.Wo_machines.Spec.model
        | None -> "sc"
      in
      Wo_report.Table.heading "Machines";
      Wo_report.Table.print
        ~headers:[ "name"; "model"; "SC"; "WO/DRF0"; "description" ]
        (List.map
           (fun (m : M.t) ->
             [
               m.M.name;
               model_of m;
               (if m.M.sequentially_consistent then "yes" else "no");
               (if m.M.weakly_ordered_drf0 then "yes" else "no");
               (let d = m.M.description in
                if String.length d > 60 then String.sub d 0 57 ^ "..." else d);
             ])
           (Wo_machines.Presets.all @ Wo_machines.Presets.models));
      if not machines_only then list_rest ()
    end
  and list_rest () =
    Wo_report.Table.heading "Litmus tests";
    Wo_report.Table.print ~headers:[ "name"; "DRF0"; "loops" ]
      (List.map
         (fun (t : L.t) ->
           [
             t.L.name;
             (if t.L.drf0 then "yes" else "no");
             (if t.L.loops then "yes" else "no");
           ])
         L.all);
    Wo_report.Table.heading "Workloads";
    Wo_report.Table.print ~headers:[ "name"; "description" ]
      (List.map
         (fun (w : Wo_workload.Workload.t) ->
           [
             w.Wo_workload.Workload.name;
             (let d = w.Wo_workload.Workload.description in
              if String.length d > 64 then String.sub d 0 61 ^ "..." else d);
           ])
         Wo_workload.Workload.all)
  in
  Cmd.v
    (Cmd.info "list" ~doc:"Catalogue of machines, litmus tests and workloads")
    Term.(const run $ machines_only_arg $ json_arg)

(* --- wo litmus ----------------------------------------------------------- *)

let litmus_cmd =
  let test_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Litmus test name (see `wo list').")
  in
  let run test machine machine_file runs seed metrics =
    let test = or_die (get_litmus test) in
    let machine = or_die (resolve_machine machine machine_file) in
    machine_errors @@ fun () ->
    let report = Wo_litmus.Runner.run ~runs ~base_seed:seed machine test in
    Format.printf "%a@.@." Wo_litmus.Runner.pp_report report;
    if not test.L.loops then begin
      Printf.printf "observed outcomes (SC set has %d):\n"
        (List.length report.Wo_litmus.Runner.sc_outcomes);
      List.iter
        (fun (o, n) ->
          let in_sc =
            List.exists
              (fun sc -> Wo_prog.Outcome.compare sc o = 0)
              report.Wo_litmus.Runner.sc_outcomes
          in
          Format.printf "  %4dx %s %a@." n
            (if in_sc then "  " else "!!")
            Wo_prog.Outcome.pp o)
        report.Wo_litmus.Runner.histogram
    end;
    (match metrics with
    | None -> ()
    | Some path ->
      (* One extra run at the base seed supplies the per-run stall and
         message detail the aggregate report does not carry. *)
      let r = M.run machine ~seed test.L.program in
      let doc =
        Wo_obs.Metrics.make ~experiment:"litmus"
          (machine_fields ()
          @ [
            ("test", Wo_obs.Json.String test.L.name);
            ("machine", Wo_obs.Json.String machine.M.name);
            ("runs", Wo_obs.Json.Int runs);
            ("seed", Wo_obs.Json.Int seed);
            ( "appears_sc",
              Wo_obs.Json.Bool (Wo_litmus.Runner.appears_sc report) );
            ( "distinct_outcomes",
              Wo_obs.Json.Int (List.length report.Wo_litmus.Runner.histogram)
            );
            ( "violations",
              Wo_obs.Json.Int (List.length report.Wo_litmus.Runner.violations)
            );
            ( "lemma1_failures",
              Wo_obs.Json.Int report.Wo_litmus.Runner.lemma1_failures );
            ( "total_cycles",
              Wo_obs.Json.Int report.Wo_litmus.Runner.total_cycles );
            ( "sample_run",
              Wo_obs.Json.Obj
                [
                  ("seed", Wo_obs.Json.Int seed);
                  ("cycles", Wo_obs.Json.Int r.M.cycles);
                  ("stalls", Wo_obs.Stall.to_json r.M.stalls);
                  ("messages", Wo_obs.Tap.to_json r.M.taps);
                ] );
          ])
      in
      Wo_obs.Metrics.write_file ~path doc;
      Printf.printf "metrics: wrote %s\n" path);
    if Wo_litmus.Runner.appears_sc report then
      print_endline "verdict: appears sequentially consistent"
    else begin
      print_endline "verdict: NOT sequentially consistent (!! marks non-SC outcomes)";
      exit 2
    end
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:"Run a litmus test on a machine and compare with the SC set")
    Term.(
      const run $ test_arg $ machine_arg $ machine_file_arg $ runs_arg
      $ seed_arg $ metrics_arg)

(* --- wo races ------------------------------------------------------------- *)

(* Definition 3's verdict as `wo races' and `wo check' print it: exit 2
   with one racy execution's races. *)
let report_drf0 = function
  | Ok () ->
    print_endline
      "every idealized execution is race-free: the program obeys DRF0"
  | Error report ->
    Printf.printf "DRF0 violated; races in one idealized execution:\n";
    List.iter
      (fun r -> Format.printf "  %a@." Wo_core.Drf0.pp_race r)
      report.Wo_core.Drf0.races;
    exit 2

let races_cmd =
  let test_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Litmus test name (see `wo list').")
  in
  let run test =
    let test = or_die (get_litmus test) in
    Format.printf "%a@.@." Wo_prog.Program.pp test.L.program;
    if test.L.loops then begin
      Printf.printf
        "(program has spin loops; sampling 30 schedules with the dynamic \
         detector)\n";
      let races =
        Wo_race.Detector.sample_program ~schedules:30
          ~run:(fun ~seed ->
            Wo_prog.Interp.execution
              (Wo_prog.Interp.run_random ~seed test.L.program))
          ()
      in
      if races = [] then print_endline "no races found: consistent with DRF0"
      else begin
        Printf.printf "%d race report(s); first few:\n" (List.length races);
        List.iteri
          (fun i r ->
            if i < 5 then Format.printf "  %a@." Wo_core.Drf0.pp_race r)
          races;
        exit 2
      end
    end
    else
      report_drf0
        (fst (Wo_prog.Enumerate.check_drf0_stateful ~domains:1 test.L.program))
  in
  Cmd.v
    (Cmd.info "races" ~doc:"Check a litmus program against Definition 3 (DRF0)")
    Term.(const run $ test_arg)

(* --- wo check -------------------------------------------------------------- *)

let check_cmd =
  let test_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Litmus test name (see `wo list').")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Number of OCaml domains to search with; $(b,0) picks the \
             recommended count for this host.  The verdict is identical \
             for every value.")
  in
  let run test jobs metrics =
    let test = or_die (get_litmus test) in
    if test.L.loops then
      or_die
        (Error
           (Printf.sprintf
              "%S has spin loops, so its idealized executions are unbounded; \
               use `wo races %s' (dynamic sampling) instead"
              test.L.name test.L.name));
    let domains = if jobs <= 0 then None else Some (max 1 jobs) in
    Format.printf "%a@.@." Wo_prog.Program.pp test.L.program;
    let t0 = Unix.gettimeofday () in
    let result, s =
      Wo_prog.Enumerate.check_drf0_stateful ?domains test.L.program
    in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf
      "search: %.3fs, %d states expanded, %d executions; visited table: %d \
       distinct, %d dedup hits; %d steals over %d domain(s)\n"
      wall s.Wo_prog.Enumerate.sf_states s.Wo_prog.Enumerate.sf_executions
      s.Wo_prog.Enumerate.sf_distinct s.Wo_prog.Enumerate.sf_hits
      s.Wo_prog.Enumerate.sf_steals
      (Array.length s.Wo_prog.Enumerate.sf_per_domain);
    (match metrics with
    | None -> ()
    | Some path ->
      let doc =
        Wo_obs.Metrics.make ~experiment:"check"
          [
            ("test", Wo_obs.Json.String test.L.name);
            ( "racy",
              Wo_obs.Json.Bool (match result with Ok () -> false | Error _ -> true)
            );
            ("wall_s", Wo_obs.Json.Float wall);
            ("states", Wo_obs.Json.Int s.Wo_prog.Enumerate.sf_states);
            ("distinct", Wo_obs.Json.Int s.Wo_prog.Enumerate.sf_distinct);
            ("dedup_hits", Wo_obs.Json.Int s.Wo_prog.Enumerate.sf_hits);
            ("executions", Wo_obs.Json.Int s.Wo_prog.Enumerate.sf_executions);
            ("steals", Wo_obs.Json.Int s.Wo_prog.Enumerate.sf_steals);
          ]
      in
      Wo_obs.Metrics.write_file ~path doc;
      Printf.printf "metrics: wrote %s\n" path);
    report_drf0 result
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively check a litmus program against Definition 3 (DRF0) \
          with the stateful DAG search (canonical state hashing, \
          processor-symmetry reduction, work stealing across $(b,-j) \
          domains)")
    Term.(const run $ test_arg $ jobs_arg $ metrics_arg)

(* --- wo workload ---------------------------------------------------------- *)

let workload_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see `wo list').")
  in
  let run name machine runs seed metrics =
    let w = or_die (get_workload name) in
    let machine = or_die (get_machine machine) in
    machine_errors @@ fun () ->
    let cycles = ref 0 and failures = ref 0 in
    let stalls = ref (Wo_obs.Stall.create ()) in
    let taps = ref (Wo_obs.Tap.create ()) in
    for s = seed to seed + runs - 1 do
      let r = M.run machine ~seed:s w.Wo_workload.Workload.program in
      cycles := !cycles + r.M.cycles;
      stalls := Wo_obs.Stall.merge !stalls r.M.stalls;
      taps := Wo_obs.Tap.merge !taps r.M.taps;
      match w.Wo_workload.Workload.validate r.M.outcome with
      | Ok () -> ()
      | Error e ->
        incr failures;
        if !failures = 1 then Printf.printf "invariant broken: %s\n" e
    done;
    Printf.printf "%s on %s: %d runs, avg %d cycles, %d invariant failures\n"
      w.Wo_workload.Workload.name machine.M.name runs (!cycles / runs)
      !failures;
    (match metrics with
    | None -> ()
    | Some path ->
      let doc =
        Wo_obs.Metrics.make ~experiment:"workload"
          [
            ("workload", Wo_obs.Json.String w.Wo_workload.Workload.name);
            ("machine", Wo_obs.Json.String machine.M.name);
            ("runs", Wo_obs.Json.Int runs);
            ("seed", Wo_obs.Json.Int seed);
            ("avg_cycles", Wo_obs.Json.Int (!cycles / runs));
            ("invariant_failures", Wo_obs.Json.Int !failures);
            ("stalls", Wo_obs.Stall.to_json !stalls);
            ("messages", Wo_obs.Tap.to_json !taps);
          ]
      in
      Wo_obs.Metrics.write_file ~path doc;
      Printf.printf "metrics: wrote %s\n" path);
    if !failures > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a workload and validate its invariant")
    Term.(const run $ name_arg $ machine_arg $ runs_arg $ seed_arg $ metrics_arg)

(* --- wo sweep -------------------------------------------------------------- *)

let sweep_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Number of OCaml domains to fan the campaign over; $(b,0) \
             (the default) picks the recommended count for this host. \
             The results are identical for every value.")
  in
  let machines_arg =
    Arg.(
      value
      & opt (list string) [ "sc-dir"; "wo-old"; "wo-new"; "wo-new-drf1" ]
      & info [ "m"; "machines" ] ~docv:"M1,M2,..."
          ~doc:"Comma-separated machines to sweep (see `wo list').")
  in
  let workloads_arg =
    Arg.(
      value & flag
      & info [ "workloads" ]
          ~doc:"Also sweep the performance workloads (average cycles).")
  in
  let run jobs machine_names machine_files model_names runs seed with_workloads
      metrics =
    (* The campaign runs over machine specs: presets resolve to theirs,
       and [--machine-file] appends JSON-defined machines to the grid. *)
    let specs =
      List.map (fun n -> or_die (get_spec n)) machine_names
      @ List.map (fun f -> or_die (load_spec f)) machine_files
    in
    let specs = expand_models model_names specs in
    let machines = List.map Wo_machines.Spec.build specs in
    let domains = if jobs <= 0 then None else Some jobs in
    machine_errors @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let campaign =
      Wo_workload.Sweep.spec_campaign ~runs ~base_seed:seed ?domains ~specs
        Wo_litmus.Litmus.all
    in
    let litmus_secs = Unix.gettimeofday () -. t0 in
    Wo_report.Table.heading
      (Printf.sprintf
         "Litmus sweep: %d tests x %d machines, %d runs each (%d domains, \
          %.2fs; %d SC sets enumerated, %d cells reused one)"
         (List.length Wo_litmus.Litmus.all)
         (List.length machines) runs campaign.Wo_workload.Sweep.domains_used
         litmus_secs campaign.Wo_workload.Sweep.sc_sets
         campaign.Wo_workload.Sweep.sc_reused);
    Wo_report.Table.print
      ~headers:
        [ "test"; "machine"; "expected"; "appears SC"; "outside SC"; "lemma1" ]
      (List.map
         (fun (c : Wo_workload.Sweep.litmus_cell) ->
           [
             c.Wo_workload.Sweep.test.L.name;
             c.Wo_workload.Sweep.machine.M.name;
             (if c.Wo_workload.Sweep.expected_sc then "SC" else "-");
             (if Wo_litmus.Runner.appears_sc c.Wo_workload.Sweep.report then
                "yes"
              else "no");
             string_of_int
               (List.length c.Wo_workload.Sweep.report.Wo_litmus.Runner.violations);
             string_of_int
               c.Wo_workload.Sweep.report.Wo_litmus.Runner.lemma1_failures;
           ])
         campaign.Wo_workload.Sweep.cells);
    let failures = Wo_workload.Sweep.failures campaign in
    let workload_cells =
      if not with_workloads then []
      else begin
        let t1 = Unix.gettimeofday () in
        let cells =
          Wo_workload.Sweep.workload_campaign ~runs:(min runs 20)
            ~base_seed:seed ?domains ~machines Wo_workload.Workload.all
        in
        Wo_report.Table.heading
          (Printf.sprintf "Workload sweep (avg cycles over %d runs, %.2fs)"
             (min runs 20)
             (Unix.gettimeofday () -. t1));
        Wo_report.Table.print
          ~headers:[ "workload"; "machine"; "avg cycles"; "invariant failures" ]
          (List.map
             (fun (c : Wo_workload.Sweep.workload_cell) ->
               [
                 c.Wo_workload.Sweep.workload.Wo_workload.Workload.name;
                 c.Wo_workload.Sweep.w_machine.M.name;
                 string_of_int c.Wo_workload.Sweep.avg_cycles;
                 string_of_int c.Wo_workload.Sweep.invariant_failures;
               ])
             cells);
        cells
      end
    in
    let workload_failures =
      List.filter
        (fun (c : Wo_workload.Sweep.workload_cell) ->
          c.Wo_workload.Sweep.invariant_failures > 0)
        workload_cells
    in
    (match metrics with
    | None -> ()
    | Some path ->
      let doc =
        Wo_obs.Metrics.make ~experiment:"sweep"
          (machine_fields ()
          @ [
            ("runs", Wo_obs.Json.Int runs);
            ("seed", Wo_obs.Json.Int seed);
            ( "domains",
              Wo_obs.Json.Int campaign.Wo_workload.Sweep.domains_used );
            ( "litmus_cells",
              Wo_obs.Json.Int
                (List.length campaign.Wo_workload.Sweep.cells) );
            ("litmus_wall_s", Wo_obs.Json.Float litmus_secs);
            ("sc_sets", Wo_obs.Json.Int campaign.Wo_workload.Sweep.sc_sets);
            ( "sc_reused",
              Wo_obs.Json.Int campaign.Wo_workload.Sweep.sc_reused );
            ("contract_failures", Wo_obs.Json.Int (List.length failures));
            ( "workload_cells",
              Wo_obs.Json.Int (List.length workload_cells) );
            ( "workload_invariant_failures",
              Wo_obs.Json.Int (List.length workload_failures) );
          ])
      in
      Wo_obs.Metrics.write_file ~path doc;
      Printf.printf "metrics: wrote %s\n" path);
    if failures <> [] || workload_failures <> [] then begin
      List.iter
        (fun (c : Wo_workload.Sweep.litmus_cell) ->
          Printf.printf
            "CONTRACT BROKEN: %s on %s promised SC but was not\n"
            c.Wo_workload.Sweep.test.L.name
            c.Wo_workload.Sweep.machine.M.name)
        failures;
      List.iter
        (fun (c : Wo_workload.Sweep.workload_cell) ->
          Printf.printf "INVARIANT BROKEN: %s on %s (%d runs)\n"
            c.Wo_workload.Sweep.workload.Wo_workload.Workload.name
            c.Wo_workload.Sweep.w_machine.M.name
            c.Wo_workload.Sweep.invariant_failures)
        workload_failures;
      exit 2
    end
    else
      print_endline
        "verdict: every machine kept its appears-SC promise on every test"
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the full litmus x machine campaign in parallel across OCaml \
          domains")
    Term.(
      const run $ jobs_arg $ machines_arg $ machine_files_arg $ models_arg
      $ runs_arg $ seed_arg $ workloads_arg $ metrics_arg)

(* --- wo trace -------------------------------------------------------------- *)

let trace_cmd =
  let test_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Litmus test name (see `wo list').")
  in
  let format_arg =
    let fmt =
      Arg.enum [ ("pretty", `Pretty); ("perfetto", `Perfetto); ("json", `Json) ]
    in
    Arg.(
      value & opt fmt `Pretty
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,pretty) (operation timeline, stall \
             attribution and the recorded event log), $(b,perfetto) (Chrome \
             trace-event JSON, loadable in Perfetto or chrome://tracing), or \
             $(b,json) (a wo-metrics document with stall and \
             protocol-message statistics).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of standard output.")
  in
  let stall_summary ppf stalls =
    match Wo_obs.Stall.procs stalls with
    | [] -> Format.fprintf ppf "stalls: none@."
    | procs ->
      Format.fprintf ppf "stall attribution (cycles):@.";
      List.iter
        (fun p ->
          let parts =
            Wo_obs.Stall.per_proc stalls ~proc:p
            |> List.map (fun (re, c) ->
                   Printf.sprintf "%s=%d" (Wo_obs.Stall.reason_name re) c)
          in
          Format.fprintf ppf "  P%d: %s  (total %d)@." p
            (String.concat " " parts)
            (Wo_obs.Stall.proc_total stalls ~proc:p))
        procs;
      Format.fprintf ppf "  all processors: %d@." (Wo_obs.Stall.total stalls)
  in
  let run test machine machine_file seed format out =
    let test = or_die (get_litmus test) in
    let machine = or_die (resolve_machine machine machine_file) in
    machine_errors @@ fun () ->
    let emit s =
      match out with
      | None -> print_string s
      | Some path ->
        let oc = open_out path in
        output_string oc s;
        close_out oc;
        Printf.printf "wrote %s\n" path
    in
    let recorder = Wo_obs.Recorder.create () in
    let r =
      Wo_obs.Recorder.with_sink recorder (fun () ->
          M.run machine ~seed test.L.program)
    in
    match format with
    | `Pretty ->
      let b = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer b in
      Format.fprintf ppf "one run of %s on %s (seed %d), commit order:@.@."
        test.L.name machine.M.name seed;
      Format.fprintf ppf "issue/commit/globally-performed@.";
      Format.fprintf ppf "%a@." Wo_sim.Trace.pp r.M.trace;
      Format.fprintf ppf "outcome: %a@." Wo_prog.Outcome.pp r.M.outcome;
      Format.fprintf ppf "cycles: %d@." r.M.cycles;
      stall_summary ppf r.M.stalls;
      (match
         M.check_lemma1
           ~init:(Wo_prog.Program.initial_value test.L.program)
           r
       with
      | Ok () -> Format.fprintf ppf "Lemma-1 oracle: satisfied@."
      | Error vs ->
        Format.fprintf ppf "Lemma-1 oracle: %d violation(s)@." (List.length vs);
        List.iter
          (fun v -> Format.fprintf ppf "  %a@." Wo_core.Lemma1.pp_violation v)
          vs);
      Format.fprintf ppf "@.recorded events (%d):@."
        (Wo_obs.Recorder.length recorder);
      Format.pp_print_flush ppf ();
      Buffer.add_string b (Wo_obs.Export.pretty recorder);
      emit (Buffer.contents b)
    | `Perfetto -> emit (Wo_obs.Export.perfetto_string recorder ^ "\n")
    | `Json ->
      let doc =
        Wo_obs.Metrics.make ~experiment:"trace"
          [
            ("test", Wo_obs.Json.String test.L.name);
            ("machine", Wo_obs.Json.String machine.M.name);
            ("seed", Wo_obs.Json.Int seed);
            ("cycles", Wo_obs.Json.Int r.M.cycles);
            ("events", Wo_obs.Json.Int (Wo_obs.Recorder.length recorder));
            ("stalls", Wo_obs.Stall.to_json r.M.stalls);
            ("messages", Wo_obs.Tap.to_json r.M.taps);
          ]
      in
      emit (Wo_obs.Json.to_string ~pretty:true doc ^ "\n")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run once and export the timeline (pretty, Perfetto trace JSON, or \
          metrics JSON)")
    Term.(
      const run $ test_arg $ machine_arg $ machine_file_arg $ seed_arg
      $ format_arg $ out_arg)

(* --- wo litmus-file ----------------------------------------------------------- *)

let litmus_file_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Litmus file (see lib/litmus/parse.mli for the format).")
  in
  let run file machine runs seed =
    let test =
      try Wo_litmus.Parse.of_file file
      with Wo_litmus.Parse.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" file line message;
        exit 1
    in
    let machine = or_die (get_machine machine) in
    Format.printf "%a@.@." Wo_prog.Program.pp test.L.program;
    Printf.printf "DRF0: %s\n\n" (if test.L.drf0 then "yes" else "no");
    let report = Wo_litmus.Runner.run ~runs ~base_seed:seed machine test in
    Format.printf "%a@.@." Wo_litmus.Runner.pp_report report;
    List.iter
      (fun (o, n) ->
        let in_sc =
          List.exists
            (fun sc -> Wo_prog.Outcome.compare sc o = 0)
            report.Wo_litmus.Runner.sc_outcomes
        in
        Format.printf "  %4dx %s %a@." n
          (if in_sc then "  " else "!!")
          Wo_prog.Outcome.pp o)
      report.Wo_litmus.Runner.histogram;
    if not (Wo_litmus.Runner.appears_sc report) then exit 2
  in
  Cmd.v
    (Cmd.info "litmus-file" ~doc:"Parse and run a litmus test from a file")
    Term.(const run $ file_arg $ machine_arg $ runs_arg $ seed_arg)

(* --- wo delays -------------------------------------------------------------- *)

let delays_cmd =
  let test_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Litmus test name (see `wo list').")
  in
  let run test =
    let test = or_die (get_litmus test) in
    match Wo_prog.Delay_set.analyse test.L.program with
    | exception Wo_prog.Delay_set.Unsupported msg ->
      prerr_endline msg;
      exit 1
    | [] ->
      print_endline
        "empty delay set: the program is sequentially consistent on any \
         hardware that preserves uniprocessor dependencies"
    | delays ->
      Printf.printf "Shasha-Snir delay set (%d pair(s)):\n"
        (List.length delays);
      List.iter
        (fun d -> Format.printf "  %a@." Wo_prog.Delay_set.pp_delay d)
        delays;
      print_newline ();
      Format.printf "%a@."
        Wo_prog.Program.pp
        (Wo_prog.Delay_set.insert_fences test.L.program)
  in
  Cmd.v
    (Cmd.info "delays"
       ~doc:"Shasha-Snir delay-set analysis and fence insertion")
    Term.(const run $ test_arg)

(* --- wo synth / wo campaign ------------------------------------------------- *)

(* The mutation corpus: every loop-free catalogued test (shared with the
   campaign layer — and with worker processes, which must regenerate the
   coordinator's exact case list). *)
let synth_corpus = Wo_campaign.Campaign.catalogue_corpus

let family_doc =
  Printf.sprintf "Generator family; one of: %s."
    (String.concat ", " Wo_synth.Synth.families)

let synth_cmd =
  let family_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FAMILY" ~doc:family_doc)
  in
  let count_arg =
    Arg.(
      value & opt int 1
      & info [ "c"; "count" ] ~docv:"N"
          ~doc:"Cases to generate, at seeds $(i,SEED)..$(i,SEED)+$(docv)-1.")
  in
  let run family seed count =
    match
      Wo_synth.Synth.batch ~corpus:(synth_corpus ()) ~family ~base_seed:seed
        ~count ()
    with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok cases ->
      List.iter
        (fun (c : Wo_synth.Synth.case) ->
          Format.printf "%s  [%s, seed %d, classified %s]@."
            c.Wo_synth.Synth.name c.Wo_synth.Synth.family c.Wo_synth.Synth.seed
            (Wo_synth.Synth.classification_name c.Wo_synth.Synth.classification);
          (match c.Wo_synth.Synth.forbidden_desc with
          | Some d -> Format.printf "forbidden outcome: %s@." d
          | None -> ());
          Format.printf "%a@.@." Wo_prog.Program.pp c.Wo_synth.Synth.program)
        cases
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Synthesize litmus programs: critical-cycle construction, snippet \
          mutation, or the seeded random families")
    Term.(const run $ family_arg $ seed_arg $ count_arg)

(* A 12-machine grid over one base spec: three fabric models x four
   synchronization-enforcement policies. *)
let campaign_grid spec =
  Wo_machines.Spec.grid
    ~fabrics:
      [
        Wo_machines.Memsys.Bus { transfer_cycles = 2 };
        Wo_machines.Memsys.Net { base = 2; jitter = 6 };
        Wo_machines.Memsys.Net_fixed { latency = 4 };
      ]
    ~syncs:
      [
        Wo_machines.Spec.Sync_none;
        Wo_machines.Spec.Sync_fence;
        Wo_machines.Spec.Sync_reserve_bit;
        Wo_machines.Spec.Sync_drf1_two_level;
      ]
    spec

let store_arg =
  Arg.(
    value & opt string "wo-campaign.store"
    & info [ "store" ] ~docv:"FILE"
        ~doc:
          "Persistent verdict store (append-only log); an existing store \
           resumes the campaign, skipping every settled cell.")

(* A path that cannot be opened as a store raises the store's one
   documented exception, [Sys_error "FILE: reason"]: report it and exit
   1 like any other bad argument. *)
let store_errors cmd f =
  try f ()
  with Sys_error e ->
    Printf.eprintf "%s: %s\n" cmd e;
    exit 1

let campaign_cmd =
  let machines_arg =
    Arg.(
      value
      & opt (list string) [ "wo-new" ]
      & info [ "m"; "machines" ] ~docv:"M1,M2,..."
          ~doc:"Comma-separated machines to campaign over (see `wo list').")
  in
  let families_arg =
    Arg.(
      value
      & opt (list string) [ "cycle-drf0"; "cycle-racy"; "cycle-mixed"; "mutate" ]
      & info [ "families" ] ~docv:"F1,F2,..." ~doc:family_doc)
  in
  let count_arg =
    Arg.(
      value & opt int 250
      & info [ "c"; "count" ] ~docv:"N" ~doc:"Cases generated per family.")
  in
  let runs_arg =
    Arg.(
      value & opt positive_int 10
      & info [ "n"; "runs" ] ~docv:"N" ~doc:"Seeded runs per cell.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"OCaml domains; $(b,0) picks the recommended count.")
  in
  let grid_arg =
    Arg.(
      value & flag
      & info [ "grid" ]
          ~doc:
            "Expand every selected machine into its 12-point fabric x \
             sync-policy grid (3 fabrics x 4 policies).")
  in
  let shard_arg =
    Arg.(
      value & opt positive_int 256
      & info [ "shard" ] ~docv:"N"
          ~doc:
            "Cells per work unit; the store is synced after each shard, so \
             a kill loses at most one shard of work.")
  in
  let max_shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-shards" ] ~docv:"N"
          ~doc:"Stop (cleanly) after $(docv) shards — partial runs.")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the findings report to $(docv).")
  in
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Fork $(docv) local worker processes that claim shards via the \
             campaign directory ($(b,<store>.campaign/)); $(b,0) runs \
             single-process.  More workers can join from other hosts with \
             $(b,--worker) against a shared directory.")
  in
  let worker_arg =
    Arg.(
      value & flag
      & info [ "worker" ]
          ~doc:
            "Run as a worker process: attach to the existing campaign \
             directory next to $(b,--store), claim and settle shards until \
             none are claimable, then exit.  Campaign parameters come from \
             the coordinator's manifest, not the command line.")
  in
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Emit a progress line per shard: shards done/total, cells \
             settled, cache hits, ETA.")
  in
  let auto_compact_arg =
    Arg.(
      value & opt float 0.5
      & info [ "auto-compact" ] ~docv:"FRAC"
          ~doc:
            "Compact the store after a complete run when at least this \
             fraction of its records are superseded duplicates (e.g. \
             re-settled shards merged from a killed worker's segment); \
             negative disables.")
  in
  let print_compacted = function
    | None -> ()
    | Some cs ->
      Printf.printf
        "store compacted: %d -> %d records, %d -> %d bytes (%.2fx)\n"
        cs.Wo_campaign.Store.cs_before_records
        cs.Wo_campaign.Store.cs_after_records
        cs.Wo_campaign.Store.cs_before_bytes cs.Wo_campaign.Store.cs_after_bytes
        (float_of_int cs.Wo_campaign.Store.cs_before_bytes
        /. float_of_int (max 1 cs.Wo_campaign.Store.cs_after_bytes))
  in
  let run_as_worker ~store_path ~jobs ~progress =
    let co =
      try Wo_campaign.Coordinator.attach ~store_path
      with Failure e | Sys_error e ->
        prerr_endline ("wo campaign --worker: " ^ e);
        exit 1
    in
    let pid = Unix.getpid () in
    let on_shard =
      if progress then
        Some
          (fun ~shard ~executed ~replayed ->
            Printf.printf "worker %d: shard %d done (%d settled, %d replayed)\n%!"
              pid shard executed replayed)
      else None
    in
    let stats =
      Wo_campaign.Coordinator.run_worker ~domains:(max 1 jobs) ?on_shard co
    in
    Printf.printf "worker %d: %d shard(s) claimed, %d cell(s) settled, %d replayed\n"
      pid stats.Wo_campaign.Coordinator.w_claimed
      stats.Wo_campaign.Coordinator.w_executed
      stats.Wo_campaign.Coordinator.w_replayed
  in
  let run families count seed runs jobs machine_names machine_files model_names
      grid shard max_shards store_path report metrics workers worker progress
      auto_compact =
    store_errors "wo campaign" @@ fun () ->
    if worker then run_as_worker ~store_path ~jobs ~progress
    else begin
    let specs =
      List.map (fun n -> or_die (get_spec n)) machine_names
      @ List.map (fun f -> or_die (load_spec f)) machine_files
    in
    let specs =
      if grid then List.concat_map campaign_grid specs else specs
    in
    let specs = expand_models model_names specs in
    let corpus = synth_corpus () in
    let cases =
      List.concat_map
        (fun family ->
          match
            Wo_synth.Synth.batch ~corpus ~family ~base_seed:seed ~count ()
          with
          | Ok cs -> cs
          | Error e ->
            prerr_endline e;
            exit 1)
        families
    in
    let config =
      {
        Wo_campaign.Campaign.runs;
        base_seed = seed;
        domains = (if jobs <= 0 then None else Some jobs);
        shard;
        max_shards;
        store_path;
        auto_compact = (if auto_compact < 0. then None else Some auto_compact);
      }
    in
    Printf.printf "campaign: %d cases x %d machines = %d cells (store %s)\n%!"
      (List.length cases) (List.length specs)
      (List.length cases * List.length specs)
      store_path;
    let t0 = Unix.gettimeofday () in
    let shards_total =
      (List.length cases * List.length specs + shard - 1) / shard
    in
    let eta_of ~done_ ~total =
      if done_ = 0 then 0.
      else
        (Unix.gettimeofday () -. t0) /. float_of_int done_
        *. float_of_int (total - done_)
    in
    (* Multi-process: publish the manifest, fork the workers (before
       anything spawns a domain), supervise to completion, merge the
       segments, then replay the merged store for the report — the
       byte-identity path shared with single-process runs. *)
    if workers > 0 then begin
      (match max_shards with
      | Some _ ->
        prerr_endline "wo campaign: --max-shards is ignored with --workers"
      | None -> ());
      let config = { config with Wo_campaign.Campaign.max_shards = None } in
      let co =
        Wo_campaign.Coordinator.create config ~specs ~families ~count
      in
      Printf.printf "  %d shard(s), %d worker process(es), dir %s.campaign\n%!"
        (Wo_campaign.Coordinator.shards co)
        workers store_path;
      let pids =
        Wo_campaign.Coordinator.spawn_local ~domains:(max 1 jobs) ~workers co
      in
      let last = ref (-1) in
      let on_progress ~done_ ~total =
        if progress && done_ <> !last then begin
          last := done_;
          Printf.printf "  shards %d/%d settled, ETA %.0fs\n%!" done_ total
            (eta_of ~done_ ~total)
        end
      in
      Wo_campaign.Coordinator.supervise ~on_progress co pids;
      let segs, appended = Wo_campaign.Coordinator.merge co in
      Printf.printf "  merged %d segment(s): %d record(s) appended\n%!" segs
        appended;
      (* Warm replay over the merged store: executed is 0, and the
         findings report is byte-identical to a single-process run's. *)
      let result = Wo_campaign.Campaign.run config ~specs ~cases in
      Wo_campaign.Coordinator.cleanup co;
      let wall = Unix.gettimeofday () -. t0 in
      Printf.printf
        "settled %d cell(s) across %d worker(s) in %.2fs (%d replayed from \
         the store)\n"
        appended workers wall
        result.Wo_campaign.Campaign.r_cache_hits;
      print_compacted result.Wo_campaign.Campaign.r_compacted;
      let report_text = Wo_campaign.Campaign.findings_report result in
      print_string report_text;
      (match report with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc report_text;
        close_out oc;
        Printf.printf "report: wrote %s\n" path);
      (match metrics with
      | None -> ()
      | Some path ->
        let doc =
          Wo_obs.Metrics.make ~experiment:"campaign"
            (machine_fields ()
            @ Wo_campaign.Campaign.result_json config result
            @ [
                ("wall_s", Wo_obs.Json.Float wall);
                ("workers", Wo_obs.Json.Int workers);
                ("merged_records", Wo_obs.Json.Int appended);
              ])
        in
        Wo_obs.Metrics.write_file ~path doc;
        Printf.printf "metrics: wrote %s\n" path);
      if result.Wo_campaign.Campaign.r_findings <> [] then exit 2
    end
    else begin
    let on_shard ~shard ~settled ~executed ~total =
      if progress then
        Printf.printf
          "  shard %d/%d: %d/%d cells settled, %d cache hit(s), ETA %.0fs\n%!"
          (shard + 1) shards_total executed total settled
          (eta_of ~done_:(shard + 1) ~total:shards_total)
      else if shard mod 50 = 0 || shard = shards_total - 1 then
        Printf.printf "  shard %d/%d: %d/%d cells settled by this run\n%!"
          (shard + 1) shards_total executed total
    in
    let result =
      Wo_campaign.Campaign.run ~on_shard config ~specs ~cases
    in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf
      "settled %d cell(s) in %.2fs (%d already settled in the store, %d \
       shard(s), %d SC sets enumerated)%s\n"
      result.Wo_campaign.Campaign.r_executed wall
      result.Wo_campaign.Campaign.r_cache_hits
      result.Wo_campaign.Campaign.r_shards
      result.Wo_campaign.Campaign.r_sc_sets
      (if result.Wo_campaign.Campaign.r_stopped_early then
         " [stopped early: --max-shards]"
       else "");
    print_compacted result.Wo_campaign.Campaign.r_compacted;
    let report_text = Wo_campaign.Campaign.findings_report result in
    print_string report_text;
    (match report with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc report_text;
      close_out oc;
      Printf.printf "report: wrote %s\n" path);
    (match metrics with
    | None -> ()
    | Some path ->
      let doc =
        Wo_obs.Metrics.make ~experiment:"campaign"
          (machine_fields ()
          @ Wo_campaign.Campaign.result_json config result
          @ [ ("wall_s", Wo_obs.Json.Float wall) ])
      in
      Wo_obs.Metrics.write_file ~path doc;
      Printf.printf "metrics: wrote %s\n" path);
    if result.Wo_campaign.Campaign.r_findings <> [] then exit 2
    end
    end
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a resumable synthesis campaign: generated litmus cases x \
          machine specs, verdicts persisted in an append-only store; scale \
          out with --workers (local forks) or --worker (join from any host \
          sharing the campaign directory)")
    Term.(
      const run $ families_arg $ count_arg $ seed_arg $ runs_arg $ jobs_arg
      $ machines_arg $ machine_files_arg $ models_arg $ grid_arg $ shard_arg
      $ max_shards_arg $ store_arg $ report_arg $ metrics_arg $ workers_arg
      $ worker_arg $ progress_arg $ auto_compact_arg)

(* --- wo difftest ----------------------------------------------------------- *)

let difftest_cmd =
  let machines_arg =
    Arg.(
      value
      & opt (list string) [ "tso-wb"; "pso-wb"; "ra-window" ]
      & info [ "m"; "machines" ] ~docv:"M1,M2,..."
          ~doc:
            "Comma-separated machines to check (see `wo list'); defaults to \
             the relaxed consistency-model zoo.")
  in
  let family_arg =
    Arg.(
      value & opt string "cycle-racy"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Synthesis family appended to the litmus corpus (see `wo \
             synth').")
  in
  let count_arg =
    Arg.(
      value & opt int 8
      & info [ "c"; "count" ] ~docv:"N"
          ~doc:"Synthesized cases generated from the family.")
  in
  let runs_arg =
    Arg.(
      value & opt positive_int 40
      & info [ "n"; "runs" ] ~docv:"N"
          ~doc:"Seeded runs per (case, machine) cell.")
  in
  let max_states_arg =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "State bound for the axiomatic reference enumeration; cells \
             whose reference set exceeds it are reported without a \
             verdict.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the full summary as JSON.")
  in
  let run machine_names machine_files family count runs seed max_states json
      metrics =
    let specs =
      List.map (fun n -> or_die (get_spec n)) machine_names
      @ List.map (fun f -> or_die (load_spec f)) machine_files
    in
    machine_errors @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let cases =
      try Wo_campaign.Difftest.default_cases ~family ~count ()
      with Invalid_argument e ->
        prerr_endline e;
        exit 1
    in
    let summary =
      Wo_campaign.Difftest.run ~specs ~runs ~base_seed:seed ~max_states ~cases
        ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    if json then
      print_endline
        (Wo_obs.Json.to_string ~pretty:true
           (Wo_campaign.Difftest.summary_to_json summary))
    else Format.printf "%a@." Wo_campaign.Difftest.pp_summary summary;
    (match metrics with
    | None -> ()
    | Some path ->
      let doc =
        Wo_obs.Metrics.make ~experiment:"difftest"
          (machine_fields ()
          @ [
            ("cases", Wo_obs.Json.Int summary.Wo_campaign.Difftest.cases);
            ("machines", Wo_obs.Json.Int summary.Wo_campaign.Difftest.machines);
            ( "checks",
              Wo_obs.Json.Int
                (List.length summary.Wo_campaign.Difftest.reports) );
            ( "violations",
              Wo_obs.Json.Int
                (List.length summary.Wo_campaign.Difftest.violating) );
            ("runs", Wo_obs.Json.Int runs);
            ("seed", Wo_obs.Json.Int seed);
            ("wall_s", Wo_obs.Json.Float wall);
          ])
      in
      Wo_obs.Metrics.write_file ~path doc;
      Printf.printf "metrics: wrote %s\n" path);
    if summary.Wo_campaign.Difftest.violating <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "difftest"
       ~doc:
         "Differential compliance: run the litmus corpus plus synthesized \
          cases on each consistency-model machine and check every observed \
          outcome against the strongest available oracle (the SC set for \
          DRF0 programs, the machine's own model's axiomatic set for racy \
          ones)")
    Term.(
      const run $ machines_arg $ machine_files_arg $ family_arg $ count_arg
      $ runs_arg $ seed_arg $ max_states_arg $ json_arg $ metrics_arg)

let store_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STORE" ~doc:"A WOCAMPS1 verdict store.")
  in
  let compact_cmd =
    let run file =
      if not (Sys.file_exists file) then begin
        Printf.eprintf "wo store compact: %s: no such store\n" file;
        exit 1
      end;
      let cs =
        store_errors "wo store compact" (fun () ->
            Wo_campaign.Store.compact file)
      in
      Printf.printf
        "compacted %s: %d -> %d records, %d -> %d bytes (%.2fx smaller)\n" file
        cs.Wo_campaign.Store.cs_before_records
        cs.Wo_campaign.Store.cs_after_records
        cs.Wo_campaign.Store.cs_before_bytes cs.Wo_campaign.Store.cs_after_bytes
        (float_of_int cs.Wo_campaign.Store.cs_before_bytes
        /. float_of_int (max 1 cs.Wo_campaign.Store.cs_after_bytes))
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite a store dropping superseded duplicate records, with a \
            crash-safe rename swap (lookups are unchanged: the surviving \
            record per key is the one every lookup already answered with)")
      Term.(const run $ file_arg)
  in
  let stats_cmd =
    let run file =
      if not (Sys.file_exists file) then begin
        Printf.eprintf "wo store stats: %s: no such store\n" file;
        exit 1
      end;
      let st =
        store_errors "wo store stats" (fun () -> Wo_campaign.Store.openf file)
      in
      Fun.protect ~finally:(fun () -> Wo_campaign.Store.close st) @@ fun () ->
      let bytes = (Unix.stat file).Unix.st_size in
      Printf.printf
        "%s: %d record(s) (%d live, %d superseded), %d bytes%s\n" file
        (Wo_campaign.Store.length st)
        (Wo_campaign.Store.live st)
        (Wo_campaign.Store.dead_estimate st)
        bytes
        (if Wo_campaign.Store.tail_dropped st > 0 then
           Printf.sprintf " (%d torn-tail bytes truncated)"
             (Wo_campaign.Store.tail_dropped st)
         else "")
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Record, liveness and size counters for a store")
      Term.(const run $ file_arg)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and compact persistent verdict stores")
    [ compact_cmd; stats_cmd ]

let main =
  let doc =
    "weak ordering, redefined — simulators and checkers for Adve & Hill's \
     DRF0 framework"
  in
  Cmd.group (Cmd.info "wo" ~version:"1.0.0" ~doc)
    [
      list_cmd;
      litmus_cmd;
      litmus_file_cmd;
      races_cmd;
      check_cmd;
      workload_cmd;
      sweep_cmd;
      trace_cmd;
      delays_cmd;
      synth_cmd;
      campaign_cmd;
      difftest_cmd;
      store_cmd;
    ]

let () = exit (Cmd.eval main)
