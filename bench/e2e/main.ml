(* E19 — one end-to-end benchmark for the Definition-2 checker.

     dune exec bench/e2e/main.exe -- [--workload NAME] [--seed S]
       [--seconds N] [--trace 0|1] [--json FILE] [--perfetto FILE]
       [--bless]

   One workload per process.  After set-up (timed several times, median
   reported as setup_s) the workload's work call repeats until the
   window of --seconds has passed; wall_s is the median call.  Every
   call's output is checked: against the golden digests in
   bench/e2e/golden/ when the seed has them, else against the first
   call.  With --trace 1 traced and untraced calls alternate and the
   per-layer metrics of the median traced call are reported instead.
   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Exit 2 when any
   check failed.  Without --workload every workload runs, each in its
   own process. *)

module W = Workloads
module J = Wo_obs.Json

let now = Trace.now

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let rank = int_of_float (Float.ceil (p *. float_of_int (Array.length a))) in
    a.(max 0 (min (Array.length a) rank - 1))

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  scan ()

(* --- metrics --------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* The per-layer block of one traced work call, from the self times of
   its spans; the synth layer runs only in set-up, so its numbers come
   from the traced set-up's. *)
let layer_metrics ~setup ~work ~runs ~store_bytes =
  let sum ?(selfs = work) prefix f =
    List.fold_left
      (fun a (s, self) ->
        if s.Trace.name = prefix || Trace.layer s.Trace.name = prefix then a +. f s self
        else a)
      0. selfs
  in
  let self ?selfs p = sum ?selfs p (fun _ self -> self) in
  let count p = sum p (fun _ _ -> 1.) in
  let arg ?selfs p k =
    sum ?selfs p (fun s _ -> float_of_int (Option.value ~default:0 (List.assoc_opt k s.Trace.args)))
  in
  let alloc_mw p = sum p (fun s _ -> s.Trace.alloc_w) /. 1e6 in
  let ratio a b = if b > 0. then a /. b else 0. in
  let finds =
    List.filter_map
      (fun (s, _) ->
        if s.Trace.name = "store.find" then Some (Trace.duration s *. 1e6)
        else None)
      work
  in
  let machine_s = self "machine" and enumerate_s = self "enumerate" in
  let runs = float_of_int runs in
  let states = arg "enumerate" "states"
  and distinct = arg "enumerate" "distinct"
  and hits = arg "enumerate" "hits" in
  let relaxed_calls = count "relaxed" and downgraded = arg "relaxed" "downgraded" in
  [
    m "machine.s" "s" machine_s;
    m "machine.cached_s" "s" (self "machine.cached");
    m "machine.uncached_s" "s" (self "machine.uncached");
    m "machine.ordering_s" "s" (self "machine.ordering");
    m "machine.runs" "count" runs;
    m "machine.runs_per_s" "1/s" (ratio runs machine_s);
    m "machine.alloc_mw" "Mw" (alloc_mw "machine");
    m "enumerate.s" "s" enumerate_s;
    m "enumerate.check_s" "s" (self "enumerate.check");
    m "enumerate.outcomes_s" "s" (self "enumerate.outcomes" +. self "enumerate.tree");
    m "enumerate.calls" "count"
      (count "enumerate.check" +. count "enumerate.outcomes" +. count "enumerate.tree");
    m "enumerate.states" "count" states;
    m "enumerate.distinct" "count" distinct;
    m "enumerate.hits" "count" hits;
    m "enumerate.dedup_ratio" "ratio" (ratio hits (distinct +. hits));
    m "enumerate.states_per_s" "1/s" (ratio states enumerate_s);
    m "relaxed.s" "s" (self "relaxed");
    m "relaxed.tso_s" "s" (self "relaxed.tso");
    m "relaxed.pso_s" "s" (self "relaxed.pso");
    m "relaxed.ra_s" "s" (self "relaxed.ra");
    m "relaxed.sets" "count" (relaxed_calls -. downgraded);
    m "relaxed.outcomes" "count" (arg "relaxed" "outcomes");
    m "relaxed.downgraded" "count" downgraded;
    m "relaxed.alloc_mw" "Mw" (alloc_mw "relaxed");
    m "store.open_s" "s" (self "store.open");
    m "store.find_s" "s" (self "store.find");
    m "store.find_p50_us" "us" (percentile 0.50 finds);
    m "store.find_p99_us" "us" (percentile 0.99 finds);
    m "store.add_s" "s" (self "store.add");
    m "store.sync_s" "s" (self "store.sync");
    m "store.bytes" "B" (float_of_int store_bytes);
    m "synth.s" "s" (self ~selfs:setup "synth");
    m "synth.cases" "count" (arg ~selfs:setup "synth" "cases");
    m "synth.distinct_ratio" "ratio"
      (ratio (arg ~selfs:setup "synth" "distinct") (arg ~selfs:setup "synth" "cases"));
    m "compile.s" "s" (self "compile");
    m "compile.programs" "count" (count "compile");
    m "compile.fallbacks" "count" (arg "compile" "fallback");
    m "spec.s" "s" (self "spec");
    m "verdict.decode_s" "s" (self "verdict.decode");
    m "report.s" "s" (self "report");
  ]

(* Self time per layer, most first, and their total: busy time. *)
let layer_table selfs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = Trace.layer s.Trace.name in
      Hashtbl.replace tbl l (self +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    selfs;
  let busy = Hashtbl.fold (fun _ v a -> a +. v) tbl 0. in
  let rows = List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl)) in
  (rows, busy)

(* The share of the work call's wall time that no layer span covers. *)
let unattributed selfs =
  match List.find_opt (fun (s, _) -> s.Trace.name = "work") selfs with
  | Some (s, self) -> self /. Trace.duration s
  | None -> nan

(* --- goldens ----------------------------------------------------------------------- *)

let golden_path name seed = Printf.sprintf "bench/e2e/golden/%s.seed%d.txt" name seed

(* What a call is checked against: one digest per part, plus the
   report's under the name "report".  A golden file holds these as
   "<name> <digest>" lines. *)
let digests (o : W.outcome) =
  ("report", Digest.to_hex (Digest.string o.W.report))
  :: List.map (fun (p : W.part) -> (p.W.part, p.W.digest)) o.W.parts

let write_golden path o =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (name, d) -> Printf.fprintf oc "%s %s\n" name d) (digests o))

let read_golden path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; d ] -> Some (name, d)
         | [ "" ] -> None
         | _ -> failwith ("malformed golden line in " ^ path))

(* Items of one call that fail their check against the reference: a
   different report or part list fails them all. *)
let failed_items ~items reference (o : W.outcome) =
  let expected = Hashtbl.of_seq (List.to_seq reference) in
  let ok (name, d) = Hashtbl.find_opt expected name = Some d in
  if List.length reference <> List.length o.W.parts + 1 || not (ok (List.hd (digests o)))
  then items
  else
    List.fold_left
      (fun n (p : W.part) -> if ok (p.W.part, p.W.digest) then n else n + p.W.covers)
      o.W.violations o.W.parts
    |> min items

(* --- one workload ------------------------------------------------------------------- *)

type options = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  json : string option;
  perfetto : string option;
  bless : bool;
}

let setup_batch_s = 0.05

(* One set-up sample: the mean of back-to-back set-ups filling at least
   [setup_batch_s]. *)
let setup_sample f =
  let t0 = now () in
  let rec go n =
    let r = f () in
    let dt = now () -. t0 in
    if dt < setup_batch_s then go (n + 1) else (dt /. float_of_int n, r)
  in
  go 1

type traced_call = {
  dt : float;
  outcome : W.outcome;
  layers : metric list;
  table : (string * float) list * float;  (** self time per layer, busy total *)
  unattributed : float;
}

let print_metric { name; value; unit } = Printf.printf "  %-24s %14.6g %s\n" name value unit

let run_workload (module X : W.WORKLOAD) o =
  let setup () = X.setup Trace.off ~seed:o.seed in
  let first_setup, inputs = setup_sample setup in
  let setup_selfs =
    if o.trace then begin
      let tr = Trace.create true in
      ignore (X.setup tr ~seed:o.seed);
      Trace.self_times (Trace.spans tr)
    end
    else []
  in
  X.start inputs;
  let items = X.items inputs in
  let untraced = ref [] and traced = ref [] and setup_samples = ref [ first_setup ] in
  let last_spans = ref [] in
  (* Calls repeat while the next one should end inside the window; a
     set-up sample follows each call, so setup_s is a median over the
     whole run rather than over its first moments. *)
  let deadline = now () +. o.seconds in
  let min_calls = if o.trace then 2 else 1 in
  let rec loop i last =
    if i < min_calls || now () +. last < deadline then begin
      let t0 = now () in
      (if o.trace && i mod 2 = 1 then begin
         let tr = Trace.create true in
         let runs0 = Wo_machines.Machine.runs () in
         let dt, outcome = X.work_traced tr inputs in
         let runs = Wo_machines.Machine.runs () - runs0 in
         let spans = Trace.spans tr in
         let selfs = Trace.self_times spans in
         traced :=
           {
             dt;
             outcome;
             layers =
               layer_metrics ~setup:setup_selfs ~work:selfs ~runs
                 ~store_bytes:(W.scratch_bytes ());
             table = layer_table selfs;
             unattributed = unattributed selfs;
           }
           :: !traced;
         if o.perfetto <> None then last_spans := spans
       end
       else
         let dt, outcome = X.work inputs in
         untraced := (dt, outcome) :: !untraced);
      setup_samples := fst (setup_sample setup) :: !setup_samples;
      loop (i + 1) (now () -. t0)
    end
  in
  loop 0 0.;
  let setup_samples = List.rev !setup_samples in
  let untraced = List.rev !untraced and traced = List.rev !traced in
  (* --- correctness ------------------------------------------------------------- *)
  let first = snd (List.hd untraced) in
  let golden = golden_path X.name o.seed in
  if o.bless && not W.quick then begin
    write_golden golden first;
    Printf.printf "blessed %s\n" golden
  end;
  let reference, against =
    if (not W.quick) && Sys.file_exists golden then (read_golden golden, golden)
    else (digests first, "the first call")
  in
  let outcomes = List.map snd untraced @ List.map (fun c -> c.outcome) traced in
  let attempted = items * List.length outcomes in
  let failed =
    List.fold_left (fun n out -> n + failed_items ~items reference out) 0 outcomes
  in
  (* --- metrics ------------------------------------------------------------------ *)
  let walls = List.map fst untraced in
  let wall_s = median walls in
  let end_to_end =
    [
      m "wall_s" "s" wall_s;
      m "items_per_s" "1/s" (float_of_int items /. wall_s);
      m "setup_s" "s" (median setup_samples);
      m "peak_rss_mb" "MB" (peak_rss_mb ());
    ]
  in
  let per_layer, chosen =
    match traced with
    | [] -> ([], None)
    | _ ->
      let traced_wall = median (List.map (fun c -> c.dt) traced) in
      let by_wall = List.sort (fun a b -> compare a.dt b.dt) traced in
      let chosen = List.nth by_wall ((List.length by_wall - 1) / 2) in
      ( chosen.layers
        @ [ m "trace.overhead_pct" "%" (100. *. ((traced_wall /. wall_s) -. 1.)) ],
        Some chosen )
  in
  (* --- report ------------------------------------------------------------------- *)
  Printf.printf
    "E19 %s: seed %d, %d domains, %.0f s window, %d %s per call\n" X.name o.seed
    W.domains o.seconds items X.noun;
  Printf.printf "  calls: %d untraced%s; checked against %s: %d/%d items failed\n"
    (List.length untraced)
    (if traced = [] then "" else Printf.sprintf ", %d traced" (List.length traced))
    against failed attempted;
  Printf.printf "  output digest %s\n"
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map snd (digests first)))));
  Printf.printf "  wall samples: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  List.iter print_metric end_to_end;
  (match chosen with
  | Some c ->
    let rows, busy = c.table in
    Printf.printf "  traced call %.3f s, busy %.3f s, unattributed %.2f%% of wall\n" c.dt
      busy (100. *. c.unattributed);
    List.iter
      (fun (layer, s) ->
        Printf.printf "    %-10s %9.4f s %6.1f%%\n" layer s (100. *. s /. busy))
      rows;
    List.iter print_metric per_layer;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (J.to_string (Trace.perfetto !last_spans));
        close_out oc)
      o.perfetto
  | None -> ());
  let metrics = if o.trace then per_layer else end_to_end in
  let metrics_json ms =
    J.Obj
      (List.map
         (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit) ]))
         ms)
  in
  Option.iter
    (fun path ->
      Wo_obs.Metrics.write_file ~path
        (Wo_obs.Metrics.make ~experiment:"e19"
           [
             ("workload", J.String X.name);
             ("seed", J.Int o.seed);
             ("seconds", J.Float o.seconds);
             ("trace", J.Bool o.trace);
             ("quick", J.Bool W.quick);
             ("domains", J.Int W.domains);
             ("items", J.Int items);
             ("wall_samples_s", J.List (List.map (fun x -> J.Float x) walls));
             ("setup_samples_s", J.List (List.map (fun x -> J.Float x) setup_samples));
             ("correct", J.Bool (failed = 0));
             ("attempted", J.Int attempted);
             ("failed", J.Int failed);
             ("metrics", metrics_json (end_to_end @ per_layer));
           ]))
    o.json;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", metrics_json metrics);
          ]));
  if failed > 0 then 2 else 0

(* --- entry point -------------------------------------------------------------------- *)

let usage = "main.exe [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] ..."

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let json = ref None and perfetto = ref None and bless = ref false in
  let names = List.map (fun (module X : W.WORKLOAD) -> X.name) W.all in
  Arg.parse
    [
      ( "--workload",
        Arg.Symbol (names, fun w -> workload := Some w),
        " run one workload (default: each in its own process)" );
      ("--seed", Arg.Set_int seed, "S workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "N measurement window (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 report the per-layer block of a traced run");
      ("--json", Arg.String (fun f -> json := Some f), "FILE write a wo-metrics document");
      ("--perfetto", Arg.String (fun f -> perfetto := Some f), "FILE write the last traced call's spans (with --trace 1)");
      ("--bless", Arg.Set bless, " rewrite the golden digests for this seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace <> 0;
      json = !json;
      perfetto = !perfetto;
      bless = !bless;
    }
  in
  match o.workload with
  | Some name ->
    let w = List.find (fun (module X : W.WORKLOAD) -> X.name = name) W.all in
    let code = Fun.protect ~finally:W.remove_workdir (fun () -> run_workload w o) in
    exit code
  | None ->
    if o.json <> None || o.perfetto <> None then begin
      prerr_endline "--json and --perfetto need --workload";
      exit 1
    end;
    (* one fresh process per workload: RSS and GC state are its own *)
    let code =
      List.fold_left
        (fun code name ->
          let args =
            [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
              "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; string_of_int !trace ]
            @ if o.bless then [ "--bless" ] else []
          in
          let pid =
            Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
              Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED c -> max code c
          | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> max code 3)
        0 names
    in
    exit code
