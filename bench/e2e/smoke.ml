(* Tier-1 smoke for the E19 benchmark, run by [dune runtest] with
   WO_BENCH_QUICK=1:

     smoke.exe MAIN_EXE WO_EXE BENCHMARK_JSON

   - every workload runs once untraced and campaign-cold once traced;
     each run must exit 0, report no failed item, print every metric
     BENCHMARK.json names for its mode, and write a valid wo-metrics
     document;
   - the benchmark's cold campaign must settle the same cells to the
     same verdicts, and write a byte-identical report, as [wo campaign]
     with the same families, count, grid, runs and seed: this keeps the
     benchmark's copy of the CLI's private campaign grid in step. *)

module J = Wo_obs.Json
module W = Workloads

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("e19 smoke: " ^ msg))
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run a command with stdout to [out]; its exit code. *)
let run ~out argv =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fd Unix.stderr in
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 255

let names_of doc key =
  match Option.bind (J.member key doc) J.to_list_opt with
  | Some l -> List.filter_map (fun x -> Option.bind (J.member "name" x) J.to_string_opt) l
  | None -> []

let check_run ~main ~dir ~expected ~workload ~trace =
  let tag = Printf.sprintf "%s (trace %d)" workload trace in
  let out = Filename.concat dir (Printf.sprintf "%s.%d.out" workload trace) in
  let json = Filename.concat dir (Printf.sprintf "%s.%d.json" workload trace) in
  let code =
    run ~out
      [| main; "--workload"; workload; "--seed"; "1"; "--seconds"; "0"; "--trace";
         string_of_int trace; "--json"; json |]
  in
  if code <> 0 then fail "%s: exit %d" tag code;
  let lines = String.split_on_char '\n' (String.trim (read_file out)) in
  (match J.of_string (List.nth lines (List.length lines - 1)) with
  | Error e -> fail "%s: last line is not JSON: %s" tag e
  | Ok result ->
    if J.member "correct" result <> Some (J.Bool true) then fail "%s: not correct" tag;
    if J.member "failed" result <> Some (J.Int 0) then fail "%s: failed items" tag;
    let metrics = Option.value ~default:J.Null (J.member "metrics" result) in
    List.iter
      (fun name ->
        match Option.bind (J.member name metrics) (J.member "value") with
        | Some (J.Float _ | J.Int _) -> ()
        | _ -> fail "%s: metric %s missing" tag name)
      expected);
  match J.of_string (read_file json) with
  | Ok doc -> (
    match Wo_obs.Metrics.validate doc with
    | Ok () -> ()
    | Error e -> fail "%s: invalid wo-metrics document: %s" tag e)
  | Error e -> fail "%s: unreadable wo-metrics document: %s" tag e

(* The benchmark's cold campaign, run in-process, against the CLI's:
   the same store key for every cell, the same verdict bytes under it,
   and the same report. *)
let parity ~wo ~dir =
  let c = W.Campaign_cold.setup Trace.off ~seed:1 in
  let _, bench = W.Campaign_cold.work c in
  let cli_store = Filename.concat dir "cli.store" in
  let cli_report = Filename.concat dir "cli.report" in
  let code =
    run ~out:(Filename.concat dir "cli.out")
      [| wo; "campaign"; "--families"; String.concat "," W.campaign_families;
         "-c"; string_of_int W.campaign_count; "--grid"; "-m";
         String.concat "," W.campaign_machines;
         "-n"; string_of_int c.W.config.Wo_campaign.Campaign.runs; "-s"; "1";
         "-j"; string_of_int W.domains; "--shard"; string_of_int W.campaign_shard;
         "--store"; cli_store; "--report"; cli_report |]
  in
  if code <> 0 then fail "parity: wo campaign exit %d" code
  else begin
    let store = Wo_campaign.Store.openf cli_store in
    let verdicts =
      Array.map (fun (cell : W.cell) -> Wo_campaign.Store.find store ~key:cell.W.key) c.W.cells
    in
    Wo_campaign.Store.close store;
    if W.shard_parts verdicts <> bench.W.parts then
      fail "parity: the wo campaign store holds other cells or verdicts";
    if read_file cli_report <> bench.W.report then
      fail "parity: benchmark and wo campaign reports differ"
  end

let () =
  if not W.quick then begin
    prerr_endline "e19 smoke: run with WO_BENCH_QUICK=1";
    exit 1
  end;
  let exe p = if Filename.is_implicit p then Filename.concat (Sys.getcwd ()) p else p in
  let main = exe Sys.argv.(1) and wo = exe Sys.argv.(2) in
  let spec =
    match J.of_string (read_file Sys.argv.(3)) with
    | Ok doc -> doc
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let workloads = names_of spec "workloads" in
  let bench_workloads = List.map (fun (module X : W.WORKLOAD) -> X.name) W.all in
  if workloads <> bench_workloads then
    fail "BENCHMARK.json names workloads %s, the benchmark has %s"
      (String.concat "," workloads) (String.concat "," bench_workloads);
  let dir = Printf.sprintf "smoke-%d" (Unix.getpid ()) in
  Sys.mkdir dir 0o755;
  List.iter
    (fun workload ->
      check_run ~main ~dir ~expected:(names_of spec "end_to_end") ~workload ~trace:0)
    bench_workloads;
  check_run ~main ~dir ~expected:(names_of spec "per_layer") ~workload:"campaign-cold"
    ~trace:1;
  parity ~wo ~dir;
  W.remove_workdir ();
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  if !failures > 0 then exit 1
