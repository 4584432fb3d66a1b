(* Scale-out: snapshot readers against live writers (qcheck over torn
   tails), compaction byte-identity (qcheck), per-domain snapshot readers
   under a live in-process appender, and the multi-process coordinator's
   claim/segment/merge protocol. *)

module C = Wo_campaign.Campaign
module Store = Wo_campaign.Store
module Coordinator = Wo_campaign.Coordinator
module S = Wo_synth.Synth

let check = Alcotest.(check bool)

let temp_store () =
  let path = Filename.temp_file "wo-scaleout-test" ".store" in
  Sys.remove path;
  path

let with_store path f =
  let s = Store.openf path in
  Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

(* --- snapshots never see torn records ---------------------------------------- *)

(* A reader that opens (or refreshes) mid-append sees some complete
   prefix of the log and nothing else: simulate the in-flight append by
   truncating the file at an arbitrary byte, load a read-only snapshot,
   and demand (a) it indexes exactly the complete prefix, byte-correct,
   (b) it never modifies the file (a concurrent writer owns the tail),
   (c) refresh picks up what a writer appends afterwards. *)
let prop_snapshot_never_torn =
  QCheck.Test.make
    ~name:"readers opened mid-append see a complete prefix, never a torn record"
    ~count:60
    QCheck.(pair (int_range 1 20) (int_range 0 4000))
    (fun (n, cut_rand) ->
      let path = temp_store () in
      let kv i =
        ( Printf.sprintf "key-%d-%s" i (String.make (i mod 9) 'k'),
          Printf.sprintf "value-%d-%s" i (String.make (i * 17 mod 60) 'v') )
      in
      with_store path (fun s ->
          for i = 1 to n do
            let k, v = kv i in
            Store.add s ~key:k ~value:v
          done);
      let size = (Unix.stat path).Unix.st_size in
      let cut = 8 + (cut_rand mod (size - 8 + 1)) in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      let snap = Store.Snapshot.load path in
      let seen = Store.Snapshot.length snap in
      let prefix_ok = ref true in
      for i = 1 to seen do
        let k, v = kv i in
        if Store.Snapshot.find snap ~key:k <> Some v then prefix_ok := false
      done;
      for i = seen + 1 to n do
        let k, _ = kv i in
        if Store.Snapshot.mem snap ~key:k then prefix_ok := false
      done;
      (* the snapshot must not have truncated or written the file *)
      let untouched = (Unix.stat path).Unix.st_size = cut in
      (* a writer reopens (recovering the tail) and appends; refresh
         must surface the append without disturbing the old snapshot *)
      with_store path (fun s -> Store.add s ~key:"fresh" ~value:"record");
      let snap2 = Store.Snapshot.refresh snap in
      let refreshed = Store.Snapshot.find snap2 ~key:"fresh" = Some "record" in
      let old_unchanged = not (Store.Snapshot.mem snap ~key:"fresh") in
      Store.Snapshot.close snap2;
      Sys.remove path;
      !prefix_ok && untouched && refreshed && old_unchanged)

(* --- compaction preserves every live pair byte-identically -------------------- *)

let prop_compaction_identity =
  QCheck.Test.make
    ~name:"compaction preserves every live (key, value) pair byte-identically"
    ~count:60
    QCheck.(pair (int_range 1 40) (int_range 1 8))
    (fun (n, distinct) ->
      let path = temp_store () in
      (* keys collide (i mod distinct): later adds are superseded
         duplicates that compaction must drop *)
      let key i = Printf.sprintf "key-%d" (i mod distinct) in
      let value i = Printf.sprintf "value-%d-%s" i (String.make (i mod 23) 'z') in
      with_store path (fun s ->
          for i = 1 to n do
            Store.add s ~key:(key i) ~value:(value i)
          done);
      let live =
        with_store path (fun s ->
            List.filter_map
              (fun d ->
                let k = Printf.sprintf "key-%d" d in
                Option.map (fun v -> (k, v)) (Store.find s ~key:k))
              (List.init distinct Fun.id))
      in
      let cs = Store.compact path in
      let after_ok =
        with_store path (fun s ->
            Store.length s = List.length live
            && Store.dead_estimate s = 0
            && Store.tail_dropped s = 0
            && List.for_all
                 (fun (k, v) -> Store.find s ~key:k = Some v)
                 live)
      in
      let stats_ok =
        cs.Store.cs_before_records = n
        && cs.Store.cs_after_records = List.length live
        && cs.Store.cs_after_bytes <= cs.Store.cs_before_bytes
        && cs.Store.cs_after_bytes = (Unix.stat path).Unix.st_size
      in
      Sys.remove path;
      after_ok && stats_ok)

(* --- snapshot readers under a live in-process appender ------------------------ *)

(* The coordinator's reading discipline, under domain concurrency:
   domain 0 appends through the one writer handle while every other
   domain holds its own snapshot (a handle is per-domain: [refresh]
   reads through the descriptor's shared offset) and refreshes it to
   chase the published high-water mark.  Every key at or below the mark
   must answer exactly its value — a torn or missing read is a protocol
   violation. *)
let test_snapshot_readers_concurrent () =
  let path = temp_store () in
  let n = 300 in
  let written = Atomic.make 0 in
  let torn = Atomic.make 0 in
  let key i = Printf.sprintf "cell-%d" i in
  let value i = Printf.sprintf "verdict-%d-%s" i (String.make (i mod 41) 'w') in
  let writer = Store.openf path in
  let lengths =
    Fun.protect ~finally:(fun () -> Store.close writer) @@ fun () ->
    Wo_workload.Sweep.parallel_map ~domains:4
      (fun w ->
        if w = 0 then begin
          for i = 1 to n do
            Store.add writer ~key:(key i) ~value:(value i);
            Atomic.set written i
          done;
          n
        end
        else begin
          let snap = ref (Store.Snapshot.load path) in
          Fun.protect ~finally:(fun () -> Store.Snapshot.close !snap)
          @@ fun () ->
          let expect i =
            match Store.Snapshot.find !snap ~key:(key i) with
            | Some v when String.equal v (value i) -> ()
            | _ -> Atomic.incr torn
          in
          let rec chase step =
            let hi = Atomic.get written in
            if hi > 0 then begin
              (* the mark is published after the append returns, so a
                 refresh now must see every record at or below it: probe
                 the newest one and an older one that moves with [step] *)
              snap := Store.Snapshot.refresh !snap;
              expect hi;
              expect (1 + (step * ((2 * w) + 7) mod hi))
            end;
            Domain.cpu_relax ();
            if hi < n then chase (step + 1)
          in
          chase 0;
          Store.Snapshot.length (Store.Snapshot.refresh !snap)
        end)
      [ 0; 1; 2; 3 ]
  in
  check "no torn or missing concurrent reads" true (Atomic.get torn = 0);
  check "every reader sees all records" true (List.for_all (( = ) n) lengths);
  Sys.remove path

(* --- the coordinator protocol ------------------------------------------------- *)

let specs =
  [
    Option.get (Wo_machines.Presets.spec_of "sc-dir");
    Option.get (Wo_machines.Presets.spec_of "wo-new");
  ]

let families = [ "cycle-mixed" ]

let count = 6

let cases () =
  let corpus = C.catalogue_corpus () in
  List.concat_map
    (fun family ->
      match S.batch ~corpus ~family ~base_seed:1 ~count () with
      | Ok cs -> cs
      | Error e -> Alcotest.failf "batch: %s" e)
    families

let config path =
  {
    (C.default_config ~store_path:path) with
    C.runs = 4;
    shard = 3;
    domains = Some 1;
  }

let cleanup_campaign path =
  (try Coordinator.cleanup (Coordinator.attach ~store_path:path)
   with Failure _ | Sys_error _ -> ());
  if Sys.file_exists path then Sys.remove path

let test_coordinator_identity () =
  let cases = cases () in
  (* single-process reference *)
  let ref_path = temp_store () in
  let r_ref = C.run (config ref_path) ~specs ~cases in
  (* coordinated: two sequential workers share the directory — the
     first stops after one claim (a worker that died would look the
     same to the second), the second finishes the campaign *)
  let path = temp_store () in
  let co = Coordinator.create (config path) ~specs ~families ~count in
  check "plan agrees with reference total" true
    (Coordinator.cells co = r_ref.C.r_total);
  let w1 = Coordinator.run_worker ~domains:1 ~max_claims:1 co in
  check "first worker claimed one shard" true (w1.Coordinator.w_claimed = 1);
  check "not everything is done yet" true
    (Coordinator.done_count co < Coordinator.shards co);
  let w2 = Coordinator.run_worker ~domains:1 co in
  check "second worker finished the rest" true
    (w1.Coordinator.w_claimed + w2.Coordinator.w_claimed
    = Coordinator.shards co);
  check "every shard done" true
    (Coordinator.done_count co = Coordinator.shards co);
  let segs, appended = Coordinator.merge co in
  check "every segment merged" true (segs = Coordinator.shards co);
  check "merge appended records" true (appended > 0);
  (* the merged store replays byte-identically to the reference *)
  let warm = C.run (config path) ~specs ~cases in
  check "warm run over merged store executes nothing" true
    (warm.C.r_executed = 0);
  Alcotest.(check string)
    "coordinated report byte-identical to single-process"
    (C.findings_report r_ref) (C.findings_report warm);
  (* merge is idempotent *)
  let _, appended2 = Coordinator.merge co in
  check "re-merge appends nothing" true (appended2 = 0);
  Coordinator.cleanup co;
  check "cleanup removes the campaign directory" false
    (Sys.file_exists (path ^ ".campaign"));
  Sys.remove ref_path;
  Sys.remove path

let test_coordinator_resume_after_kill () =
  (* A killed worker leaves a stale lock (its pid is dead) and a torn
     segment; the next worker must break the lock, recover the
     segment's complete records, and settle only the remainder. *)
  let cases = cases () in
  let path = temp_store () in
  let co = Coordinator.create (config path) ~specs ~families ~count in
  (* settle shard 0 for real once, to harvest a valid segment *)
  let w = Coordinator.run_worker ~domains:1 ~max_claims:1 co in
  check "one shard settled" true (w.Coordinator.w_claimed = 1);
  let seg0 = Filename.concat (path ^ ".campaign") "segs/shard-00000.seg" in
  let lock0 = Filename.concat (path ^ ".campaign") "locks/shard-00000.lock" in
  let done0 = Filename.concat (path ^ ".campaign") "segs/shard-00000.done" in
  check "segment exists" true (Sys.file_exists seg0);
  (* simulate the kill: drop the done marker, tear the segment's tail,
     and plant a lock owned by a dead pid on this host *)
  Sys.remove done0;
  let size = (Unix.stat seg0).Unix.st_size in
  let fd = Unix.openfile seg0 [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd (size - 5);
  Unix.close fd;
  Sys.remove lock0;
  (* any pid the kernel says is unused (fork is off-limits here: the
     test binary has already spawned domains) *)
  let dead_pid =
    let rec probe p =
      match Unix.kill p 0 with
      | () -> probe (p - 1)
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> p
      | exception Unix.Unix_error (_, _, _) -> probe (p - 1)
    in
    probe 4_000_000
  in
  let oc = open_out lock0 in
  Printf.fprintf oc "%d %s\n" dead_pid (Unix.gethostname ());
  close_out oc;
  (* the next worker must reclaim shard 0 (stale lock) and finish all *)
  let w2 = Coordinator.run_worker ~domains:1 co in
  check "resumed worker reclaimed the torn shard" true
    (w2.Coordinator.w_claimed = Coordinator.shards co);
  check "torn record was re-settled, complete ones replayed" true
    (w2.Coordinator.w_replayed > 0);
  check "all shards done after resume" true
    (Coordinator.done_count co = Coordinator.shards co);
  ignore (Coordinator.merge co);
  let warm = C.run (config path) ~specs ~cases in
  check "resumed campaign replays everything" true (warm.C.r_executed = 0);
  let ref_path = temp_store () in
  let r_ref = C.run (config ref_path) ~specs ~cases in
  Alcotest.(check string)
    "report after kill+resume byte-identical"
    (C.findings_report r_ref) (C.findings_report warm);
  Coordinator.cleanup co;
  Sys.remove ref_path;
  Sys.remove path

let test_live_lock_respected () =
  let path = temp_store () in
  let co = Coordinator.create (config path) ~specs ~families ~count in
  let lock0 = Filename.concat (path ^ ".campaign") "locks/shard-00000.lock" in
  (* a lock held by a live pid (ours) must not be broken *)
  let oc = open_out lock0 in
  Printf.fprintf oc "%d %s\n" (Unix.getpid ()) (Unix.gethostname ());
  close_out oc;
  let w = Coordinator.run_worker ~domains:1 co in
  check "live-locked shard was skipped" true
    (w.Coordinator.w_claimed = Coordinator.shards co - 1);
  check "locked shard not done" false (Coordinator.shard_done co 0);
  Sys.remove lock0;
  let w2 = Coordinator.run_worker ~domains:1 co in
  check "released shard claimed" true (w2.Coordinator.w_claimed = 1);
  Coordinator.cleanup co;
  Sys.remove path

(* --- campaign auto-compaction -------------------------------------------------- *)

let test_auto_compact () =
  let cases = cases () in
  let path = temp_store () in
  (* a cold run writes no duplicates: no compaction even at threshold 0+ *)
  let cfg = { (config path) with C.auto_compact = Some 0.01 } in
  let cold = C.run cfg ~specs ~cases in
  check "clean run does not compact" true (cold.C.r_compacted = None);
  let records = cold.C.r_store_records in
  (* duplicate every record (as merged segments from a double-claimed
     shard would), then run warm: half the store is superseded *)
  let pairs = ref [] in
  with_store path (fun s ->
      Store.iter s (fun ~key ~value -> pairs := (key, value) :: !pairs);
      List.iter (fun (k, v) -> Store.add s ~key:k ~value:v) !pairs);
  let warm = C.run cfg ~specs ~cases in
  check "warm run replays despite duplicates" true (warm.C.r_executed = 0);
  (match warm.C.r_compacted with
  | None -> Alcotest.fail "50% superseded store did not auto-compact"
  | Some cs ->
    check "compaction dropped the duplicates" true
      (cs.Store.cs_after_records = records
      && cs.Store.cs_before_records = 2 * records));
  Alcotest.(check string)
    "report unchanged by compaction"
    (C.findings_report cold) (C.findings_report warm);
  (* and the compacted store still replays byte-identically *)
  let again = C.run cfg ~specs ~cases in
  check "post-compaction run replays everything" true
    (again.C.r_executed = 0 && again.C.r_compacted = None);
  Sys.remove path

let tests =
  [
    QCheck_alcotest.to_alcotest prop_snapshot_never_torn;
    QCheck_alcotest.to_alcotest prop_compaction_identity;
    Alcotest.test_case "snapshot readers: lock-free reads under a live writer"
      `Quick test_snapshot_readers_concurrent;
    Alcotest.test_case
      "coordinator: two workers reproduce the single-process report" `Quick
      test_coordinator_identity;
    Alcotest.test_case "coordinator: kill -9 resume (stale lock, torn segment)"
      `Quick test_coordinator_resume_after_kill;
    Alcotest.test_case "coordinator: live locks are never broken" `Quick
      test_live_lock_respected;
    Alcotest.test_case "campaign auto-compacts a half-superseded store" `Quick
      test_auto_compact;
  ]
