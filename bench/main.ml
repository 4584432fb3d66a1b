(* The reproduction harness: one sub-command per paper artifact (see
   DESIGN.md's experiment index), plus Bechamel micro-benchmarks.

   Usage:
     main.exe            run E1..E7 and the micro-benchmarks
     main.exe e3 e4      run selected experiments
     main.exe micro      micro-benchmarks only *)

let experiments =
  [
    ("e1", E1_figure1.run);
    ("e2", E2_figure2.run);
    ("e3", E3_figure3.run);
    ("e4", E4_spin.run);
    ("e5", E5_sweep.run);
    ("e6", E6_contract.run);
    ("e7", E7_ablation.run);
    ("e8", E8_delay_sets.run);
    ("e9", E9_enum.run);
    ("e10", E10_obs.run);
    ("e11", E11_hotpath.run);
    ("e12", E12_statespace.run);
    ("e13", E13_machines.run);
    ("e14", E14_compiled.run);
    ("e15", E15_campaign.run);
    ("e17", E17_machpath.run);
    ("e18", E18_models.run);
    ("micro", Micro.run);
  ]

let usage () =
  print_endline
    "usage: main.exe \
     [e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e11|e12|e13|e14|e15|e17|e18|micro]...";
  print_endline "with no arguments, everything runs in order";
  exit 1

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: [] -> List.map fst experiments
    | _ :: args -> args
    | [] -> assert false
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None -> usage ())
    requested
