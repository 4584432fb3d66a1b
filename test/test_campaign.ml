(* The campaign engine: store crash-recovery (qcheck over truncation
   points), compaction byte-identity (qcheck), verdict round-trips,
   resume-equals-uninterrupted reports, auto-compaction, and the store's
   one error for a path that is not a store. *)

module C = Wo_campaign.Campaign
module Store = Wo_campaign.Store
module S = Wo_synth.Synth

let check = Alcotest.(check bool)

let temp_store () =
  let path = Filename.temp_file "wo-campaign-test" ".store" in
  Sys.remove path;
  (* Store.openf creates it *)
  path

let with_store path f =
  let s = Store.openf path in
  Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

let names_file path e =
  let p = path ^ ": " in
  String.length e > String.length p
  && String.sub e 0 (String.length p) = p

(* --- the store --------------------------------------------------------------- *)

let test_store_basic () =
  let path = temp_store () in
  with_store path (fun s ->
      check "fresh store empty" true (Store.length s = 0);
      Store.add s ~key:"k1" ~value:"v1";
      Store.add s ~key:"k2" ~value:"";
      Store.add s ~key:"\x00bin\xffkey" ~value:String.(make 1000 '\x07');
      check "find k1" true (Store.find s ~key:"k1" = Some "v1");
      check "find empty value" true (Store.find s ~key:"k2" = Some "");
      check "find binary" true
        (Store.find s ~key:"\x00bin\xffkey" = Some (String.make 1000 '\x07'));
      check "mem missing" false (Store.mem s ~key:"k3"));
  with_store path (fun s ->
      check "reopen keeps records" true (Store.length s = 3);
      check "reopen clean tail" true (Store.tail_dropped s = 0);
      check "reopen find" true (Store.find s ~key:"k1" = Some "v1"));
  Sys.remove path

(* Crash simulation: build a log of [n] records, truncate the file at an
   arbitrary byte offset past the header, and reopen.  Every record
   wholly before the cut must be recovered; the torn tail must be
   dropped; and the store must accept appends afterwards. *)
let prop_truncation_recovery =
  QCheck.Test.make
    ~name:"store recovers every complete record after arbitrary truncation"
    ~count:60
    QCheck.(pair (int_range 1 20) (int_range 0 2000))
    (fun (n, cut_rand) ->
      let path = temp_store () in
      let kv i = (Printf.sprintf "key-%d-%s" i (String.make (i mod 7) 'x'),
                  Printf.sprintf "value-%d-%s" i (String.make (i * 13 mod 50) 'y'))
      in
      with_store path (fun s ->
          for i = 1 to n do
            let k, v = kv i in
            Store.add s ~key:k ~value:v
          done);
      let size = (Unix.stat path).Unix.st_size in
      (* cut somewhere in [8, size] — never into the magic *)
      let cut = 8 + (cut_rand mod (size - 8 + 1)) in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      let ok =
        with_store path (fun s ->
            (* every record the cut preserved must be intact *)
            let recovered = Store.length s in
            let all_good = ref true in
            for i = 1 to recovered do
              let k, v = kv i in
              if Store.find s ~key:k <> Some v then all_good := false
            done;
            (* records past the recovered prefix must be absent *)
            for i = recovered + 1 to n do
              let k, _ = kv i in
              if Store.mem s ~key:k then all_good := false
            done;
            (* and the store must still be appendable *)
            Store.add s ~key:"post-crash" ~value:"fine";
            !all_good && Store.find s ~key:"post-crash" = Some "fine")
      in
      let ok2 =
        with_store path (fun s -> Store.find s ~key:"post-crash" = Some "fine")
      in
      Sys.remove path;
      ok && ok2)

(* Corruption that keeps every length field intact: flip one byte
   inside a mid-log record's key or value.  Only the record checksum can
   notice, so [openf] must recover exactly the records before it and
   truncate there — the truncation property above cannot tell a skipped
   checksum from a checked one. *)
let prop_flipped_byte_recovery =
  QCheck.Test.make
    ~name:"store truncates at a record whose key or value bytes were flipped"
    ~count:40
    QCheck.(triple (int_range 2 20) (int_range 0 1000) (int_range 0 10_000))
    (fun (n, victim_rand, byte_rand) ->
      let path = temp_store () in
      let kv i = (Printf.sprintf "key-%d-%s" i (String.make (i mod 5) 'k'),
                  Printf.sprintf "value-%d-%s" i (String.make (i * 7 mod 40) 'v'))
      in
      with_store path (fun s ->
          for i = 1 to n do
            let k, v = kv i in
            Store.add s ~key:k ~value:v
          done);
      (* record [victim] (1-based) starts at [start]: past the 8-byte
         magic and every earlier record's 12-byte header and payload *)
      let victim = 1 + (victim_rand mod n) in
      let start = ref 8 in
      for i = 1 to victim - 1 do
        let k, v = kv i in
        start := !start + 12 + String.length k + String.length v
      done;
      let k, v = kv victim in
      let at = !start + 12 + (byte_rand mod (String.length k + String.length v)) in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let prefix_only length find mem =
        length = victim - 1
        && List.for_all
             (fun i ->
               let k, v = kv i in
               if i < victim then find k = Some v else not (mem k))
             (List.init n (fun i -> i + 1))
      in
      let store_ok =
        with_store path (fun s ->
            prefix_only (Store.length s)
              (fun key -> Store.find s ~key)
              (fun key -> Store.mem s ~key)
            && Store.tail_dropped s > 0)
      in
      let truncated_there = (Unix.stat path).Unix.st_size = !start in
      Sys.remove path;
      store_ok && truncated_there)

let test_store_rejects_foreign () =
  let path = Filename.temp_file "wo-campaign-test" ".store" in
  let oc = open_out path in
  output_string oc "NOTALOG!extra";
  close_out oc;
  (match Store.openf path with
  | exception Sys_error e -> check "error names the file" true (names_file path e)
  | s ->
    Store.close s;
    Alcotest.fail "foreign magic accepted");
  Sys.remove path

(* Compaction keeps exactly the first record of each key: every lookup
   answers as before, and the rewritten log holds nothing else. *)
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

(* Every bad path surfaces as the one documented exception, in the
   "file: reason" shape — never a raw Unix_error — from each entry point
   that opens a store, including a whole campaign run. *)
let test_store_unopenable () =
  let dir = Filename.get_temp_dir_name () in
  let missing = Filename.concat (Filename.concat dir "wo-no-such-dir") "x.store" in
  let expect what path f =
    match f () with
    | exception Sys_error e ->
      check (what ^ ": error names the file") true (names_file path e)
    | exception e ->
      Alcotest.failf "%s: raised %s, not Sys_error" what (Printexc.to_string e)
    | () -> Alcotest.failf "%s: opened" what
  in
  expect "openf, missing directory" missing (fun () ->
      Store.close (Store.openf missing));
  expect "openf, a directory" dir (fun () -> Store.close (Store.openf dir));
  expect "compact, a directory" dir (fun () -> ignore (Store.compact dir));
  expect "campaign run, missing directory" missing (fun () ->
      ignore
        (C.run
           { (C.default_config ~store_path:missing) with C.runs = 1 }
           ~specs:[ Option.get (Wo_machines.Presets.spec_of "wo-new") ]
           ~cases:[]))

(* --- verdicts ---------------------------------------------------------------- *)

let ok_prefix = {|{"ok":true,|}

let kept_verdict =
  {
    C.v_ok = true; v_expected_sc = true; v_appears_sc = true;
    v_violations = []; v_lemma1 = 0; v_error = None; v_witness = None;
  }

let test_verdict_roundtrip () =
  let vs =
    [
      kept_verdict;
      {
        C.v_ok = false; v_expected_sc = true; v_appears_sc = false;
        v_violations = [ "P0:r0=1 /\\ [x]=2"; "P1:r0=0" ]; v_lemma1 = 3;
        v_error = Some "deadlock: no runnable processor";
        v_witness = Some "seed 4, outcome ...\n  t=0 P0 issues W(x)";
      };
    ]
  in
  List.iter
    (fun v ->
      match C.verdict_of_string (C.verdict_to_string v) with
      | Ok v' -> check "verdict round-trips" true (v = v')
      | Error e -> Alcotest.failf "verdict parse: %s" e)
    vs;
  (* the findings pass skips stored values with this prefix undecoded:
     it must mark exactly the kept promises *)
  List.iter
    (fun v ->
      check "ok prefix iff v_ok" v.C.v_ok
        (String.starts_with ~prefix:ok_prefix (C.verdict_to_string v)))
    vs

(* A broken promise's stored verdict, witness trace included, is pinned
   byte for byte (MD5 of [verdict_to_string]).  The machines are hand
   built to claim weak ordering w.r.t. DRF0 and break it: the
   relaxed net-cache on dekker-sync leaves the SC set (witness: the first
   seed outside it), and the wo-new derivative without reserve bits on
   a slow-route figure-3 scenario (loops, so no SC set) fails Lemma 1
   (witness: the first Lemma-1 failure). *)
let test_broken_promise_verdict_bytes () =
  let module M = Wo_machines.Machine in
  let module P = Wo_machines.Presets in
  let module L = Wo_litmus.Litmus in
  let liar =
    { P.net_cache_relaxed with M.name = "liar"; weakly_ordered_drf0 = true }
  in
  let no_reserve =
    Wo_machines.Coherent.make ~name:"ablated" ~description:""
      ~sequentially_consistent:false ~weakly_ordered_drf0:true
      {
        P.wo_new_config with
        Wo_machines.Coherent.cache =
          { Wo_cache.Cache_ctrl.default_config with reserve_enabled = false };
        fabric = Wo_machines.Coherent.Net { base = 2; jitter = 40 };
        slow_routes = [ ((3, 1), 8) ];
      }
  in
  let pinned machine (t : L.t) ~runs ~witness_head ~md5 =
    let sc_outcomes =
      if t.L.loops then None
      else
        Some (fst (Wo_prog.Enumerate.outcomes_stateful ~domains:1 t.L.program))
    in
    let v = C.evaluate ~runs ~base_seed:1 ~sc_outcomes machine t in
    let name = machine.M.name ^ "/" ^ t.L.name in
    check (name ^ " breaks its promise") false v.C.v_ok;
    (match v.C.v_witness with
    | Some w ->
      check (name ^ " witness seed") true
        (String.starts_with ~prefix:witness_head w)
    | None -> Alcotest.failf "%s: no witness" name);
    Alcotest.(check string)
      (name ^ " verdict bytes") md5
      (Digest.to_hex (Digest.string (C.verdict_to_string v)))
  in
  pinned liar L.dekker_sync ~runs:30
    ~witness_head:"seed 5, outcome { P0:r0=0; P1:r0=0; x=1; y=1; }\n"
    ~md5:"3ee8675378c80dc3869dee6bf744b407";
  pinned no_reserve
    (L.figure3_scenario ~work_before_unset:2 ())
    ~runs:100
    ~witness_head:
      "seed 3, outcome { P1:r0=0; x=1; s=1; t=2; } (Lemma-1 violation)\n"
    ~md5:"311bd51b8fd4a4d82097837ceecccaa1"

(* The sweep's cases: every catalogued test keeps its DRF0 and loop flags
   through [case_of_litmus] and back. *)
let test_catalogue_cases_keep_flags () =
  let module L = Wo_litmus.Litmus in
  List.iter
    (fun (t : L.t) ->
      let t' = C.litmus_of_case (C.case_of_litmus t) in
      check (t.L.name ^ " flags") true
        (t'.L.name = t.L.name && t'.L.drf0 = t.L.drf0
        && t'.L.loops = t.L.loops))
    L.all

(* --- campaigns: resume and determinism --------------------------------------- *)

let specs =
  [
    Option.get (Wo_machines.Presets.spec_of "sc-dir");
    Option.get (Wo_machines.Presets.spec_of "wo-new");
  ]

(* The CLI's [--grid] over the three E19 campaign machines: the cached,
   uncached and ordering backends, each on three fabrics under four
   sync policies. *)
let grid_specs =
  List.concat_map
    (fun name ->
      Wo_machines.Spec.grid
        ~fabrics:
          [
            Wo_machines.Memsys.Bus { transfer_cycles = 2 };
            Wo_machines.Memsys.Net { base = 2; jitter = 6 };
            Wo_machines.Memsys.Net_fixed { latency = 4 };
          ]
        ~syncs:
          Wo_machines.Spec.
            [ Sync_none; Sync_fence; Sync_reserve_bit; Sync_drf1_two_level ]
        (Option.get (Wo_machines.Presets.spec_of name)))
    [ "wo-new"; "bus-nocache-wb"; "tso-wb" ]

let cases () =
  match S.batch ~family:"cycle-mixed" ~base_seed:1 ~count:6 () with
  | Ok cs -> cs
  | Error e -> Alcotest.failf "batch: %s" e

let config path =
  { (C.default_config ~store_path:path) with C.runs = 4; shard = 3 }

let test_campaign_resume_identical () =
  let cases = cases () in
  (* uninterrupted reference *)
  let ref_path = temp_store () in
  let r_ref = C.run (config ref_path) ~specs ~cases in
  check "reference settles all" true
    (r_ref.C.r_executed > 0 && not r_ref.C.r_stopped_early);
  (* interrupted: two shards, then stop; then resume *)
  let path = temp_store () in
  let partial =
    C.run { (config path) with C.max_shards = Some 2 } ~specs ~cases
  in
  check "partial stopped early" true partial.C.r_stopped_early;
  check "partial settled two shards" true (partial.C.r_executed <= 6);
  let resumed = C.run (config path) ~specs ~cases in
  check "resume re-settles nothing already settled" true
    (resumed.C.r_cache_hits = partial.C.r_executed);
  check "resume finishes the campaign" true
    (resumed.C.r_executed + resumed.C.r_cache_hits = resumed.C.r_total);
  Alcotest.(check string)
    "resumed report byte-identical to uninterrupted"
    (C.findings_report r_ref) (C.findings_report resumed);
  (* a third run replays everything from the store *)
  let warm = C.run (config path) ~specs ~cases in
  check "warm run executes nothing" true (warm.C.r_executed = 0);
  check "warm run all cache hits" true (warm.C.r_cache_hits = warm.C.r_total);
  Alcotest.(check string)
    "warm report byte-identical to uninterrupted"
    (C.findings_report r_ref) (C.findings_report warm);
  Sys.remove ref_path;
  Sys.remove path

(* A store seeded by hand: every cell settled with a kept promise except
   one failing verdict, one malformed value that starts like a kept
   promise, and one malformed value that does not.  The run simulates
   nothing and reports exactly the failing cell — malformed values are
   skipped whether or not they carry the kept-promise prefix. *)
let test_campaign_findings_from_seeded_store () =
  let cases = cases () in
  let path = temp_store () in
  let cfg = config path in
  let p = C.plan cfg ~specs ~cases in
  let failing =
    C.verdict_to_string
      { kept_verdict with C.v_ok = false; v_appears_sc = false;
        v_violations = [ "P0:r0=0 /\\ P1:r0=0" ] }
  in
  let seeded = [ (1, failing); (2, ok_prefix ^ "garbage"); (4, {|{"ok":false,|}) ] in
  with_store path (fun s ->
      for idx = 0 to C.plan_cells p - 1 do
        let value =
          Option.value (List.assoc_opt idx seeded)
            ~default:(C.verdict_to_string kept_verdict)
        in
        Store.add s ~key:(C.cell_store_key p idx) ~value
      done);
  let r = C.run cfg ~specs ~cases in
  check "nothing simulated" true (r.C.r_executed = 0);
  let nspecs = List.length specs in
  let case = List.nth cases (1 / nspecs) and spec = List.nth specs (1 mod nspecs) in
  (match r.C.r_findings with
  | [ f ] ->
    Alcotest.(check string) "finding case" case.S.name f.C.f_case;
    Alcotest.(check string) "finding machine" spec.Wo_machines.Spec.name f.C.f_machine;
    check "finding carries the stored verdict" true
      (C.verdict_to_string f.C.f_verdict = failing)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  Sys.remove path

let test_campaign_counters () =
  let rec_ = Wo_obs.Recorder.create () in
  let path = temp_store () in
  let result =
    Wo_obs.Recorder.with_sink rec_ (fun () ->
        C.run (config path) ~specs ~cases:(cases ()))
  in
  let find ?(rec_ = rec_) name =
    List.find_map
      (function
        | Wo_obs.Recorder.Counter
            { name = n; cat = Wo_obs.Recorder.Camp; value; _ }
          when String.equal n name ->
          Some value
        | _ -> None)
      (Wo_obs.Recorder.events rec_)
  in
  check "campaign.settled counter" true
    (find "campaign.settled" = Some result.C.r_executed);
  check "campaign.cache_hits counter" true
    (find "campaign.cache_hits" = Some result.C.r_cache_hits);
  (* the shared counter: recorded beside settled, equal to the count
     [run_with_shared] returns, and nonzero on a cold grid whose
     uncached specs build the same hardware under three sync policies *)
  check "campaign.shared counter" true (find "campaign.shared" = Some 0);
  let grid_rec = Wo_obs.Recorder.create () in
  let path' = temp_store () in
  let cold, shared =
    Wo_obs.Recorder.with_sink grid_rec (fun () ->
        C.run_with_shared (config path') ~specs:grid_specs ~cases:(cases ()))
  in
  check "campaign.shared counter" true
    (find ~rec_:grid_rec "campaign.shared" = Some shared);
  check "a cold grid shares batches" true
    (shared > 0 && shared < cold.C.r_executed);
  check "shared in the metrics fields" true
    (List.assoc_opt "shared" (C.result_json ~shared (config path') cold)
    = Some (Wo_obs.Json.Int shared));
  let _, warm_shared = C.run_with_shared (config path') ~specs:grid_specs ~cases:(cases ()) in
  check "a warm run shares nothing" true (warm_shared = 0);
  Sys.remove path;
  Sys.remove path'

(* Two cases with one program share a store key.  With one cell per
   shard, the second case's cell meets the key the first one's shard
   just wrote: the run settled both (one shared batch), and only a later
   run finds them in the store.  A key an earlier run wrote stays a
   cache hit even after this run has written others. *)
let test_campaign_cross_shard_repeat () =
  let case, other =
    match cases () with
    | c :: rest -> (c, List.find (fun o -> o.S.program <> c.S.program) rest)
    | [] -> Alcotest.fail "no cases"
  in
  let cases = [ case; { case with S.name = case.S.name ^ "-twin" } ] in
  let specs = [ List.hd specs ] in
  let path = temp_store () in
  let cfg = { (config path) with C.shard = 1 } in
  let cold, shared = C.run_with_shared cfg ~specs ~cases in
  check "cold run: no cache hits" true (cold.C.r_cache_hits = 0);
  check "cold run settles both cells" true
    (cold.C.r_executed = 2 && cold.C.r_shards = 2);
  check "the repeat shares the first cell's batch" true (shared = 1);
  check "the key is written once" true (cold.C.r_store_records = 1);
  let warm, warm_shared = C.run_with_shared cfg ~specs ~cases in
  check "warm run: both cells are cache hits" true
    (warm.C.r_cache_hits = 2 && warm.C.r_executed = 0 && warm_shared = 0);
  let mixed = C.run cfg ~specs ~cases:[ other; case ] in
  check "an earlier run's key is a hit after this run wrote" true
    (mixed.C.r_executed = 1 && mixed.C.r_cache_hits = 1);
  Sys.remove path

(* --- campaigns: auto-compaction ----------------------------------------------- *)

let test_auto_compact () =
  let cases = cases () in
  let path = temp_store () in
  (* a cold run writes no duplicates: no compaction even at threshold 0+ *)
  let cfg = { (config path) with C.auto_compact = Some 0.01 } in
  let cold = C.run cfg ~specs ~cases in
  check "clean run does not compact" true (cold.C.r_compacted = None);
  let records = cold.C.r_store_records in
  (* append every record again, then run warm: half the store is
     superseded *)
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

(* --- campaigns: one seed batch per behaviour class ------------------------------ *)

module Spec = Wo_machines.Spec

(* [haystack] contains [needle]. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let sync_free (c : S.case) =
  (Wo_prog.Program.features c.S.program).Wo_prog.Program.sync_free

(* A cold grid campaign over the three E19 machines, with one case
   repeated under a second name (same program, so the same store key,
   in the same shard), and two sync-free cases beside the mixed ones,
   where the uncached buffer shares TSO's batches and a backend's sync
   policies share one run key: a racy cycle, and a DRF0 program whose
   [+none] cells promise nothing while the other policies promise SC.
   Every cell stores exactly the verdict its own [evaluate] gives, and
   the repeated key is written once. *)
let test_campaign_sharing_exact () =
  let racy =
    match S.batch ~family:"cycle-racy" ~base_seed:1 ~count:1 () with
    | Ok [ c ] -> c
    | _ -> Alcotest.fail "no cycle-racy case"
  in
  let disjoint =
    let module I = Wo_prog.Instr in
    {
      racy with
      S.name = "disjoint";
      program =
        Wo_prog.Program.make ~name:"disjoint"
          [
            [ I.Write (0, I.Const 1); I.Read (0, 0) ];
            [ I.Write (1, I.Const 1); I.Read (0, 1) ];
          ];
      classification = S.Drf0_by_construction;
      forbidden = None;
      forbidden_desc = None;
    }
  in
  let cases =
    match cases () with
    | c :: rest ->
      c :: { c with S.name = c.S.name ^ "-twin" } :: racy :: disjoint :: rest
    | [] -> Alcotest.fail "no cases"
  in
  check "a sync-free case and a sync case" true
    (List.exists sync_free cases
    && List.exists (fun c -> not (sync_free c)) cases);
  let path = temp_store () in
  let cfg = { (config path) with C.shard = 2 * List.length grid_specs } in
  let r, shared = C.run_with_shared cfg ~specs:grid_specs ~cases in
  check "some cells shared a batch" true (shared > 0);
  let p = C.plan cfg ~specs:grid_specs ~cases in
  let machines = List.map Spec.build grid_specs in
  with_store path (fun s ->
      check "no superseded records" true (Store.live s = Store.length s);
      List.iteri
        (fun ci (case : S.case) ->
          let test = C.litmus_of_case case in
          let sc_outcomes =
            if test.Wo_litmus.Litmus.loops then None
            else
              Some
                (fst
                   (Wo_prog.Enumerate.outcomes_stateful ~domains:1
                      case.S.program))
          in
          List.iteri
            (fun si machine ->
              let idx = (ci * List.length grid_specs) + si in
              let want =
                C.verdict_to_string
                  (C.evaluate ~runs:cfg.C.runs ~base_seed:cfg.C.base_seed
                     ~sc_outcomes machine test)
              in
              if Store.find s ~key:(C.cell_store_key p idx) <> Some want then
                Alcotest.failf "%s on %s: stored verdict <> its own evaluate"
                  case.S.name machine.Wo_machines.Machine.name)
            machines)
        cases);
  check "every cell settled" true (r.C.r_executed = r.C.r_total);
  Sys.remove path

(* Two specs that differ only in name share a run key, but a
   machine error names the machine: on a cell that deadlocks (the
   coarse-counter cached machine on a 6-cycle bus, which draws nothing,
   so every seed deadlocks), each cell runs its own batch and its
   verdict names its own spec. *)
let test_campaign_sharing_keeps_error_names () =
  let coarse =
    match Spec.default_cached with
    | Spec.Cached c -> Spec.Cached { c with coarse_counter = true }
    | m -> m
  in
  let base =
    {
      (Option.get (Wo_machines.Presets.spec_of "wo-new")) with
      Spec.fabric = Wo_machines.Memsys.Bus { transfer_cycles = 6 };
      memory = coarse;
    }
  in
  let a = { base with Spec.name = "coarse-a" }
  and b = { base with Spec.name = "coarse-b" } in
  let case =
    {
      S.name = "lock-disciplined-21";
      family = "lock-disciplined";
      seed = 21;
      program =
        S.lock_disciplined ~seed:21 ~procs:3 ~sections_per_proc:4 ~locks:3
          ~shared_locs:3 ();
      classification = S.Drf0_by_construction;
      forbidden = None;
      forbidden_desc = None;
    }
  in
  let features = Wo_prog.Program.features case.S.program in
  check "name-only difference shares a key" true
    (Spec.run_key a features = Spec.run_key b features);
  let path = temp_store () in
  let cfg = config path in
  let r, shared = C.run_with_shared cfg ~specs:[ a; b ] ~cases:[ case ] in
  let p = C.plan cfg ~specs:[ a; b ] ~cases:[ case ] in
  with_store path (fun s ->
      List.iteri
        (fun idx ((spec : Spec.t), (other : Spec.t)) ->
          match
            Option.map C.verdict_of_string
              (Store.find s ~key:(C.cell_store_key p idx))
          with
          | Some (Ok { C.v_error = Some e; _ }) ->
            check (spec.Spec.name ^ " named in its own error") true
              (contains e (spec.Spec.name ^ ":")
              && not (contains e other.Spec.name))
          | _ -> Alcotest.failf "%s: no machine error stored" spec.Spec.name)
        [ (a, b); (b, a) ]);
  check "an erroring class shares nothing" true (shared = 0);
  check "both cells are findings" true
    (List.map (fun f -> f.C.f_machine) r.C.r_findings = [ "coarse-a"; "coarse-b" ]);
  Sys.remove path

let tests =
  [
    Alcotest.test_case "store: add, find, reopen" `Quick test_store_basic;
    QCheck_alcotest.to_alcotest prop_truncation_recovery;
    QCheck_alcotest.to_alcotest prop_flipped_byte_recovery;
    Alcotest.test_case "store: foreign magic rejected" `Quick
      test_store_rejects_foreign;
    Alcotest.test_case "verdict JSON round-trips" `Quick test_verdict_roundtrip;
    Alcotest.test_case "broken-promise verdict bytes (witness included)"
      `Quick test_broken_promise_verdict_bytes;
    Alcotest.test_case "catalogue cases keep DRF0 and loop flags" `Quick
      test_catalogue_cases_keep_flags;
    Alcotest.test_case
      "interrupted+resumed campaign = uninterrupted (byte-identical report)"
      `Quick test_campaign_resume_identical;
    Alcotest.test_case "seeded store: only the failing verdict is a finding"
      `Quick test_campaign_findings_from_seeded_store;
    Alcotest.test_case "campaign emits observability counters" `Quick
      test_campaign_counters;
    Alcotest.test_case "shared seed batches = per-cell verdicts" `Quick
      test_campaign_sharing_exact;
    Alcotest.test_case "shared seed batches keep each machine's error name"
      `Quick test_campaign_sharing_keeps_error_names;
    Alcotest.test_case "store: unopenable paths raise Sys_error naming the file"
      `Quick test_store_unopenable;
    QCheck_alcotest.to_alcotest prop_compaction_identity;
    Alcotest.test_case "campaign auto-compacts a half-superseded store" `Quick
      test_auto_compact;
    Alcotest.test_case
      "a key repeated in a later shard is settled by the run, not a cache hit"
      `Quick test_campaign_cross_shard_repeat;
  ]
