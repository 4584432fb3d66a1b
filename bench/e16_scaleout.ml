(* Experiment E16 — the scale-out campaign engine.

   The scale-out layer is multi-process campaign workers
   (filesystem-coordinated shard claims, per-worker store segments,
   idempotent merge), concurrent read-only store snapshots, and store
   compaction.  This experiment measures the three claims:

   - worker scaling: cold-campaign wall-clock at 4 forked workers vs 1,
     target >= 3x on full bounds with >= 4 cores — with the merged
     store's findings report byte-identical to the single-worker run's;
   - concurrent lookup latency: p50 of a snapshot find under 8 reader
     domains, each holding and refreshing its own Store.Snapshot, while
     one domain appends through the writer handle, target <= 4us;
   - compaction: bytes reclaimed from a 50%-superseded store, target
     >= 1.8x smaller, with every live lookup answering identically
     before and after.

   Phase order is load-bearing: OCaml 5 forbids fork once a domain has
   ever been spawned, so both worker fleets fork (and are reaped)
   before any in-process campaign or reader pool spawns a domain.

   Results go to stdout and BENCH_scaleout.json; CI gates the identity
   and compaction claims on quick bounds, the scaling and latency
   targets at full bounds (and enough cores) only. *)

module C = Wo_campaign.Campaign
module Coordinator = Wo_campaign.Coordinator
module Store = Wo_campaign.Store
module S = Wo_synth.Synth
module J = Wo_obs.Json
open Exp_common

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let families = [ "cycle-mixed"; "mutate" ]

let per_family = scaled 400 6

let synthesize () =
  let corpus = C.catalogue_corpus () in
  List.concat_map
    (fun family ->
      match S.batch ~corpus ~family ~base_seed:1 ~count:per_family () with
      | Ok cs -> cs
      | Error e -> failwith e)
    families

let grid_specs () =
  let base =
    match Wo_machines.Presets.spec_of "wo-new" with
    | Some s -> s
    | None -> failwith "wo-new preset missing"
  in
  let specs =
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
      base
  in
  if quick then [ List.hd specs; List.nth specs 3 ] else specs

let temp_store () =
  let path = Filename.temp_file "wo-e16" ".store" in
  Sys.remove path;
  path

let config path =
  {
    (C.default_config ~store_path:path) with
    C.runs = scaled 20 4;
    shard = scaled 64 3;
    domains = Some 1;
    auto_compact = None;
  }

(* One coordinated campaign: fork [workers] processes (one domain
   each), supervise to completion, merge.  Wall-clock covers the whole
   thing — fork to merged store. *)
let coordinated ~workers ~specs =
  let path = temp_store () in
  let co = Coordinator.create (config path) ~specs ~families ~count:per_family in
  let (), secs =
    time (fun () ->
        let pids = Coordinator.spawn_local ~domains:1 ~workers co in
        Coordinator.supervise co pids;
        ignore (Coordinator.merge co))
  in
  (path, co, secs)

let run () =
  Printf.printf "\n== E16: scale-out campaign engine ==\n%!";
  let cases = synthesize () in
  let specs = grid_specs () in
  let cells = List.length cases * List.length specs in
  let cores = Domain.recommended_domain_count () in
  (* --- worker scaling (all forks happen here, before any domain) ----------- *)
  let path1, co1, secs1 = coordinated ~workers:1 ~specs in
  let path4, co4, secs4 = coordinated ~workers:4 ~specs in
  let speedup = secs1 /. Float.max secs4 1e-9 in
  Printf.printf
    "campaign: %d cells (%d cases x %d machines), %d-cell shards, %d cores\n\
    \  1 worker:  %.3fs\n\
    \  4 workers: %.3fs\n\
    \  speedup: %.2fx %s\n%!"
    cells (List.length cases) (List.length specs) (config path1).C.shard cores
    secs1 secs4 speedup
    (if speedup >= 3.0 then "(>= 3x target met)"
     else if cores < 4 then "(target 3x; needs >= 4 cores)"
     else "(target 3x)");
  (* both stores replay their whole campaign and agree byte for byte *)
  let warm1 = C.run (config path1) ~specs ~cases in
  let warm4 = C.run (config path4) ~specs ~cases in
  let replay_ok = warm1.C.r_executed = 0 && warm4.C.r_executed = 0 in
  let report_identical =
    String.equal (C.findings_report warm1) (C.findings_report warm4)
  in
  Printf.printf
    "  merged report %s the single-worker report (%d findings, 0 re-executed: \
     %b)\n%!"
    (if report_identical then "byte-identical to" else "DIVERGES from")
    (List.length warm4.C.r_findings)
    replay_ok;
  Coordinator.cleanup co1;
  Coordinator.cleanup co4;
  (* --- concurrent lookup latency ------------------------------------------- *)
  let keys = ref [] in
  let s = Store.openf path1 in
  Store.iter s (fun ~key ~value:_ -> keys := key :: !keys);
  Store.close s;
  let keys = Array.of_list !keys in
  let readers = 8 in
  let per_reader = scaled 2000 200 in
  let batch = 32 in
  let samples = Array.make (readers * (per_reader / batch)) 0. in
  let appended = Atomic.make 0 in
  let writer = Store.openf path4 in
  ignore
    (Wo_workload.Sweep.parallel_map ~domains:(readers + 1)
       (fun w ->
         if w = 0 then
           (* the one writer: keep appending fresh records so readers see
              snapshot refreshes, not a frozen index *)
           for i = 1 to scaled 400 40 do
             Store.add writer ~key:(Printf.sprintf "e16-writer-%d" i) ~value:"x";
             Atomic.incr appended
           done
         else begin
           (* a snapshot handle is per-domain: refresh reads through its
              descriptor's shared offset *)
           let snap = ref (Store.Snapshot.load path4) in
           let r = w - 1 in
           for b = 0 to (per_reader / batch) - 1 do
             snap := Store.Snapshot.refresh !snap;
             let t0 = now () in
             for i = 0 to batch - 1 do
               let k =
                 keys.(((r * 131) + (b * batch) + i) mod Array.length keys)
               in
               ignore (Store.Snapshot.find !snap ~key:k)
             done;
             samples.((r * (per_reader / batch)) + b) <-
               (now () -. t0) *. 1e9 /. float_of_int batch
           done;
           Store.Snapshot.close !snap
         end)
       (List.init (readers + 1) Fun.id));
  Store.close writer;
  Array.sort compare samples;
  let pct p =
    samples.(min (Array.length samples - 1)
               (int_of_float (float_of_int (Array.length samples) *. p)))
  in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  Printf.printf
    "snapshot readers: %d keys, %d readers x %d finds + %d live appends\n\
    \  lookup p50 %.0fns, p99 %.0fns %s\n%!"
    (Array.length keys) readers per_reader (Atomic.get appended) p50 p99
    (if p50 <= 4_000. then "(<= 4us target met)" else "(target 4us)");
  (* --- compaction ----------------------------------------------------------- *)
  (* duplicate every record once: a 50%-superseded store, the shape a
     double-claimed multi-worker campaign (or repeated merges) leaves *)
  let dup_path = temp_store () in
  let live = ref [] in
  let s1 = Store.openf path1 in
  let dup = Store.openf dup_path in
  Store.iter s1 (fun ~key ~value ->
      live := (key, value) :: !live;
      Store.add dup ~key ~value);
  List.iter (fun (key, value) -> Store.add dup ~key ~value) !live;
  Store.sync dup;
  Store.close dup;
  Store.close s1;
  let cs, compact_secs = time (fun () -> Store.compact dup_path) in
  let shrink =
    float_of_int cs.Store.cs_before_bytes
    /. float_of_int (max 1 cs.Store.cs_after_bytes)
  in
  let lookups_identical =
    let s = Store.openf dup_path in
    let ok =
      List.for_all (fun (key, value) -> Store.find s ~key = Some value) !live
      && Store.length s = List.length !live
    in
    Store.close s;
    ok
  in
  Printf.printf
    "compaction: %d -> %d records, %d -> %d bytes (%.2fx smaller) in %.3fs\n\
    \  post-compaction lookups identical: %b %s\n%!"
    cs.Store.cs_before_records cs.Store.cs_after_records
    cs.Store.cs_before_bytes cs.Store.cs_after_bytes shrink compact_secs
    lookups_identical
    (if shrink >= 1.8 then "(>= 1.8x target met)" else "(target 1.8x)");
  (* --- metrics -------------------------------------------------------------- *)
  write_metrics ~experiment:"e16-scaleout" ~path:"BENCH_scaleout.json"
    [
      ("quick", J.Bool quick);
      ("cores", J.Int cores);
      ("cells", J.Int cells);
      ("shard_cells", J.Int (config path1).C.shard);
      ("worker1_wall_s", J.Float secs1);
      ("worker4_wall_s", J.Float secs4);
      ("workers_speedup", J.Float speedup);
      ("workers_speedup_target_met", J.Bool (speedup >= 3.0));
      ("report_identical", J.Bool report_identical);
      ("replay_executed_zero", J.Bool replay_ok);
      ( "concurrent_lookup_ns",
        J.Obj
          [
            ("readers", J.Int readers);
            ("p50", J.Float p50);
            ("p99", J.Float p99);
            ("live_appends", J.Int (Atomic.get appended));
          ] );
      ("lookup_p50_target_met", J.Bool (p50 <= 4_000.));
      ( "compaction",
        J.Obj
          [
            ("before_records", J.Int cs.Store.cs_before_records);
            ("after_records", J.Int cs.Store.cs_after_records);
            ("before_bytes", J.Int cs.Store.cs_before_bytes);
            ("after_bytes", J.Int cs.Store.cs_after_bytes);
            ("shrink", J.Float shrink);
            ("wall_s", J.Float compact_secs);
          ] );
      ("compaction_shrink_target_met", J.Bool (shrink >= 1.8));
      ("compaction_lookups_identical", J.Bool lookups_identical);
    ];
  Sys.remove path1;
  Sys.remove path4;
  Sys.remove dup_path
