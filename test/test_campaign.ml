(* The campaign engine: store crash-recovery (qcheck over truncation
   points), verdict round-trips, resume-equals-uninterrupted reports,
   and the store's one error for a path that is not a store. *)

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
  expect "snapshot, missing directory" missing (fun () ->
      Store.Snapshot.close (Store.Snapshot.load missing));
  expect "snapshot, a directory" dir (fun () ->
      Store.Snapshot.close (Store.Snapshot.load dir));
  expect "compact, a directory" dir (fun () -> ignore (Store.compact dir));
  expect "campaign run, missing directory" missing (fun () ->
      ignore
        (C.run
           { (C.default_config ~store_path:missing) with C.runs = 1 }
           ~specs:[ Option.get (Wo_machines.Presets.spec_of "wo-new") ]
           ~cases:[]))

(* --- verdicts ---------------------------------------------------------------- *)

let test_verdict_roundtrip () =
  let vs =
    [
      {
        C.v_ok = true; v_expected_sc = true; v_appears_sc = true;
        v_violations = []; v_lemma1 = 0; v_error = None; v_witness = None;
      };
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
    vs

(* --- campaigns: resume and determinism --------------------------------------- *)

let specs =
  [
    Option.get (Wo_machines.Presets.spec_of "sc-dir");
    Option.get (Wo_machines.Presets.spec_of "wo-new");
  ]

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
  Sys.remove ref_path;
  Sys.remove path

let test_campaign_counters () =
  let rec_ = Wo_obs.Recorder.create () in
  let path = temp_store () in
  let result =
    Wo_obs.Recorder.with_sink rec_ (fun () ->
        C.run (config path) ~specs ~cases:(cases ()))
  in
  let find name =
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
  Sys.remove path

let tests =
  [
    Alcotest.test_case "store: add, find, reopen" `Quick test_store_basic;
    QCheck_alcotest.to_alcotest prop_truncation_recovery;
    Alcotest.test_case "store: foreign magic rejected" `Quick
      test_store_rejects_foreign;
    Alcotest.test_case "verdict JSON round-trips" `Quick test_verdict_roundtrip;
    Alcotest.test_case
      "interrupted+resumed campaign = uninterrupted (byte-identical report)"
      `Quick test_campaign_resume_identical;
    Alcotest.test_case "campaign emits observability counters" `Quick
      test_campaign_counters;
    Alcotest.test_case "store: unopenable paths raise Sys_error naming the file"
      `Quick test_store_unopenable;
  ]
