(* The observability subsystem: JSON printer/parser roundtrips, recorder
   semantics, stall accounting, the metrics envelope, and — the part the
   rest of the suite can't cover — parse-back validation of the Perfetto
   traces the machines actually emit, plus the Figure-3 claim stated in
   stall-attribution terms. *)

module J = Wo_obs.Json
module Rec = Wo_obs.Recorder
module Stall = Wo_obs.Stall
module M = Wo_machines.Machine
module P = Wo_machines.Presets
module L = Wo_litmus.Litmus

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Json ------------------------------------------------------------------- *)

let sample_json =
  J.Obj
    [
      ("null", J.Null);
      ("flags", J.List [ J.Bool true; J.Bool false ]);
      ("n", J.Int (-42));
      ("big", J.Int max_int);
      ("s", J.String "quote \" backslash \\ newline \n tab \t unicode \x01");
      ("empty_list", J.List []);
      ("empty_obj", J.Obj []);
      ("nested", J.Obj [ ("xs", J.List [ J.Obj [ ("k", J.Int 1) ] ]) ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      match J.of_string (J.to_string ~pretty sample_json) with
      | Ok parsed ->
        check (Printf.sprintf "roundtrip pretty:%b" pretty) true
          (parsed = sample_json)
      | Error e -> Alcotest.fail ("parse failed: " ^ e))
    [ false; true ]

let test_json_floats () =
  (match J.of_string (J.to_string (J.Float 1.5)) with
  | Ok (J.Float f) -> check "float value survives" true (f = 1.5)
  | _ -> Alcotest.fail "float did not roundtrip");
  (* JSON has no NaN/inf: they serialize as null and must stay parseable *)
  match J.of_string (J.to_string (J.List [ J.Float nan; J.Float infinity ])) with
  | Ok (J.List [ J.Null; J.Null ]) -> ()
  | _ -> Alcotest.fail "non-finite floats must serialize as null"

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_accessors () =
  check "member" true (J.member "n" sample_json = Some (J.Int (-42)));
  check "member missing" true (J.member "nope" sample_json = None);
  check "to_int accepts integral float" true
    (J.to_int_opt (J.Float 3.0) = Some 3);
  check "to_float accepts int" true (J.to_float_opt (J.Int 3) = Some 3.0)

(* --- Recorder --------------------------------------------------------------- *)

let test_recorder_disabled_is_noop () =
  let before = Rec.length Rec.disabled in
  Rec.span Rec.disabled ~cat:Rec.Proc ~track:0 ~name:"x" ~ts:0 ~dur:1;
  Rec.instant Rec.disabled ~cat:Rec.Net ~track:0 ~name:"y" ~ts:0;
  Rec.counter Rec.disabled ~cat:Rec.Enum ~track:0 ~name:"z" ~ts:0 ~value:1;
  check_int "disabled records nothing" before (Rec.length Rec.disabled);
  check "disabled reports disabled" false (Rec.enabled Rec.disabled)

let test_recorder_chunk_overflow () =
  let r = Rec.create () in
  let n = (2 * Rec.chunk_size) + 17 in
  for i = 0 to n - 1 do
    Rec.instant r ~cat:Rec.Proc ~track:(i mod 4) ~name:"tick" ~ts:i
  done;
  check_int "all events kept across chunks" n (Rec.length r);
  let events = Rec.events r in
  check_int "events lists every event" n (List.length events);
  (* emission order is preserved across chunk boundaries *)
  List.iteri
    (fun i ev ->
      match ev with
      | Rec.Instant { ts; _ } ->
        if ts <> i then Alcotest.fail "event order broken"
      | _ -> Alcotest.fail "wrong event kind")
    events;
  Rec.clear r;
  check_int "clear empties" 0 (Rec.length r)

let test_ambient_sink () =
  let r = Rec.create () in
  check "default ambient sink is disabled" false (Rec.enabled (Rec.active ()));
  Rec.with_sink r (fun () ->
      check "ambient sink installed" true (Rec.active () == r));
  check "ambient sink restored" false (Rec.enabled (Rec.active ()));
  (* exception-safe restore *)
  (try Rec.with_sink r (fun () -> failwith "boom") with Failure _ -> ());
  check "restored after raise" false (Rec.enabled (Rec.active ()))

(* --- Hist / Tap ------------------------------------------------------------- *)

let test_hist () =
  let h = Wo_obs.Hist.create () in
  List.iter (Wo_obs.Hist.add h) [ 1; 1; 2; 100; 0 ];
  check_int "count" 5 (Wo_obs.Hist.count h);
  check_int "sum" 104 (Wo_obs.Hist.sum h);
  check_int "max" 100 (Wo_obs.Hist.max_value h);
  let h2 = Wo_obs.Hist.create () in
  Wo_obs.Hist.add h2 7;
  let m = Wo_obs.Hist.merge h h2 in
  check_int "merge count" 6 (Wo_obs.Hist.count m);
  check_int "merge sum" 111 (Wo_obs.Hist.sum m)

let test_tap () =
  let t = Wo_obs.Tap.create () in
  Wo_obs.Tap.record t ~name:"GetS" ~latency:3;
  Wo_obs.Tap.record t ~name:"GetS" ~latency:5;
  Wo_obs.Tap.record t ~name:"Inv" ~latency:1;
  check_int "total" 3 (Wo_obs.Tap.total t);
  check "stats keys" true
    (List.map fst (Wo_obs.Tap.to_stats t) = [ "msg.GetS"; "msg.Inv" ]);
  let t2 = Wo_obs.Tap.create () in
  Wo_obs.Tap.record t2 ~name:"Inv" ~latency:2;
  check_int "merge total" 4 (Wo_obs.Tap.total (Wo_obs.Tap.merge t t2))

let test_tap_semantics () =
  let names t = List.map (fun (n, c, _) -> (n, c)) (Wo_obs.Tap.to_list t) in
  let listed = Alcotest.(check (list (pair string int))) in
  let t = Wo_obs.Tap.create () in
  listed "fresh taps list nothing" [] (names t);
  Wo_obs.Tap.record t ~name:"GetS" ~latency:3;
  listed "only recorded types" [ ("GetS", 1) ] (names t);
  Wo_obs.Tap.record t ~name:(String.concat "" [ "Get"; "S" ]) ~latency:5;
  Wo_obs.Tap.record t ~name:"Inv" ~latency:1;
  listed "equal strings share a type" [ ("GetS", 2); ("Inv", 1) ] (names t);
  let c = Wo_obs.Tap.copy t in
  Wo_obs.Tap.clear t;
  listed "clear then to_list" [] (names t);
  check_int "cleared total" 0 (Wo_obs.Tap.total t);
  Wo_obs.Tap.record t ~name:"Inv" ~latency:9;
  listed "copy unaffected by a later clear and record"
    [ ("GetS", 2); ("Inv", 1) ]
    (names c);
  check "copy keeps its histograms" true
    (Wo_obs.Json.to_string (Wo_obs.Tap.to_json c)
    <> Wo_obs.Json.to_string (Wo_obs.Tap.to_json t));
  listed "recording resumes after clear" [ ("Inv", 1) ] (names t)

(* --- Stall ------------------------------------------------------------------ *)

let test_stall_accounts () =
  let s = Stall.create () in
  Stall.add s ~proc:0 Stall.Release_gate 10;
  Stall.add s ~proc:0 Stall.Release_gate 5;
  Stall.add s ~proc:2 Stall.Reserve_wait 7;
  Stall.add s ~proc:1 Stall.Read_miss 0 (* ignored *);
  Stall.add s ~proc:1 Stall.Read_miss (-3) (* ignored *);
  check_int "accumulates" 15 (Stall.get s ~proc:0 Stall.Release_gate);
  check_int "total" 22 (Stall.total s);
  check "non-positive ignored" true (Stall.procs s = [ 0; 2 ]);
  check "legacy keys" true
    (List.mem ("P0.stall.release_gate", 15) (Stall.to_stats s));
  check "legacy total" true (List.mem ("stall.total", 22) (Stall.to_stats s))

let test_stall_reason_names_roundtrip () =
  List.iter
    (fun reason ->
      match Stall.reason_of_name (Stall.reason_name reason) with
      | Some r -> check (Stall.reason_name reason) true (r = reason)
      | None -> Alcotest.fail ("no roundtrip for " ^ Stall.reason_name reason))
    Stall.all_reasons;
  check "unknown name" true (Stall.reason_of_name "gate" = None)

let test_stall_semantics () =
  let json s = J.to_string (Stall.to_json s) in
  let s = Stall.create () in
  Stall.add s ~proc:3 Stall.Write_ack 0;
  check "zero cycles list nothing" true
    (Stall.procs s = [] && Stall.to_stats s = []);
  (* Reason [i] of [all_reasons] gets [i + 1] cycles on P1.  [merge]
     maps each account back to a reason by its position in
     [all_reasons], so every reason keeps its own count only if the
     accounts are laid out in that order. *)
  List.iteri (fun i r -> Stall.add s ~proc:1 r (i + 1)) Stall.all_reasons;
  let merged = Stall.merge s (Stall.create ()) in
  List.iteri
    (fun i r ->
      check_int (Stall.reason_name r) (i + 1) (Stall.get merged ~proc:1 r))
    Stall.all_reasons;
  check "per_proc follows all_reasons" true
    (Stall.per_proc merged ~proc:1
    = List.mapi (fun i r -> (r, i + 1)) Stall.all_reasons);
  check "merge with empty keeps the json" true (json merged = json s);
  let c = Stall.copy s in
  let before = json s in
  Stall.clear s;
  check "clear then procs" true (Stall.procs s = []);
  check "clear then to_stats" true (Stall.to_stats s = []);
  check_int "cleared total" 0 (Stall.total s);
  Stall.add s ~proc:0 Stall.Migration 4;
  check "copy unaffected by a later clear and add" true (json c = before)

(* --- Metrics envelope ------------------------------------------------------- *)

let test_metrics_envelope () =
  let doc = Wo_obs.Metrics.make ~experiment:"test" [ ("x", J.Int 1) ] in
  check "validates" true (Wo_obs.Metrics.validate doc = Ok ());
  check "experiment tag" true (Wo_obs.Metrics.experiment doc = Some "test");
  check "schema version present" true
    (J.member "schema_version" doc = Some (J.Int Wo_obs.Metrics.schema_version));
  check "rejects wrong schema" true
    (Wo_obs.Metrics.validate (J.Obj [ ("schema", J.String "other") ]) <> Ok ());
  check "payload collision rejected" true
    (try
       ignore (Wo_obs.Metrics.make ~experiment:"t" [ ("schema", J.Null) ]);
       false
     with Invalid_argument _ -> true)

(* --- Perfetto export of a real machine run ---------------------------------- *)

let record_run machine ~seed program =
  let r = Rec.create () in
  let result = Rec.with_sink r (fun () -> M.run machine ~seed program) in
  (r, result)

let test_perfetto_parse_back () =
  let recorder, _ =
    record_run P.wo_new ~seed:7 (L.figure3_scenario ()).L.program
  in
  check "run recorded events" true (Rec.length recorder > 0);
  match J.of_string (Wo_obs.Export.perfetto_string recorder) with
  | Error e -> Alcotest.fail ("perfetto output is not valid JSON: " ^ e)
  | Ok doc ->
    let events =
      match J.member "traceEvents" doc with
      | Some l -> Option.get (J.to_list_opt l)
      | None -> Alcotest.fail "no traceEvents array"
    in
    check "metadata + events present" true
      (List.length events > Rec.length recorder);
    List.iter
      (fun ev ->
        let field name = J.member name ev in
        let ph =
          match Option.bind (field "ph") J.to_string_opt with
          | Some ph -> ph
          | None -> Alcotest.fail "event without ph"
        in
        check "known phase" true (List.mem ph [ "X"; "i"; "C"; "M" ]);
        check "has pid" true (Option.bind (field "pid") J.to_int_opt <> None);
        check "has name" true
          (Option.bind (field "name") J.to_string_opt <> None);
        if ph = "X" then
          match Option.bind (field "dur") J.to_int_opt with
          | Some dur -> check "span durations non-negative" true (dur >= 0)
          | None -> Alcotest.fail "span without dur"
        else ();
        if ph <> "M" then
          check "has ts" true (Option.bind (field "ts") J.to_int_opt <> None))
      events

let test_trace_deterministic () =
  let program = (L.figure3_scenario ()).L.program in
  let a, _ = record_run P.wo_new ~seed:11 program in
  let b, _ = record_run P.wo_new ~seed:11 program in
  check_string "same seed, byte-identical exported trace"
    (Wo_obs.Export.perfetto_string a)
    (Wo_obs.Export.perfetto_string b);
  let c, _ = record_run P.wo_new ~seed:12 program in
  check "different seed, different trace" true
    (Wo_obs.Export.perfetto_string a <> Wo_obs.Export.perfetto_string c)

(* --- The Figure-3 claim, in stall-attribution terms ------------------------- *)

let test_figure3_attribution () =
  let program = (L.figure3_scenario ()).L.program in
  let old_gate = ref 0 and new_gate = ref 0 and new_commit = ref 0 in
  for seed = 1 to 10 do
    let old_r = M.run P.wo_old ~seed program in
    let new_r = M.run P.wo_new ~seed program in
    old_gate := !old_gate + M.stall old_r ~proc:0 "release_gate";
    new_gate := !new_gate + M.stall new_r ~proc:0 "release_gate";
    new_commit := !new_commit + M.stall new_r ~proc:0 "sync_commit"
  done;
  check "Definition-1 hardware gates P0's release" true (!old_gate > 0);
  check_int "the Section-5.3 machine never release-gates P0" 0 !new_gate;
  check "wo-new still waits for the Unset to commit" true (!new_commit > 0)

(* --- Accounting invariant over random DRF0 programs ------------------------- *)

let prop_stall_accounting_consistent =
  QCheck.Test.make
    ~name:"total stalls = per-proc sums = per-reason sums (all machines)"
    ~count:8 QCheck.small_int (fun seed ->
      let program =
        Wo_synth.Synth.lock_disciplined ~seed:(seed + 1) ()
      in
      List.for_all
        (fun (m : M.t) ->
          let r = M.run m ~seed:(seed + 1) program in
          let s = r.M.stalls in
          let by_proc =
            List.fold_left
              (fun acc proc -> acc + Stall.proc_total s ~proc)
              0 (Stall.procs s)
          in
          let by_reason =
            List.fold_left
              (fun acc proc ->
                List.fold_left
                  (fun acc (_, cycles) -> acc + cycles)
                  acc
                  (Stall.per_proc s ~proc))
              0 (Stall.procs s)
          in
          M.total_stalls r = Stall.total s
          && Stall.total s = by_proc
          && by_proc = by_reason
          && List.for_all
               (fun proc -> M.proc_stalls r ~proc = Stall.proc_total s ~proc)
               (Stall.procs s))
        P.all)

let tests =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json floats" `Quick test_json_floats;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "disabled recorder is a no-op" `Quick
      test_recorder_disabled_is_noop;
    Alcotest.test_case "recorder chunk overflow" `Quick
      test_recorder_chunk_overflow;
    Alcotest.test_case "ambient sink" `Quick test_ambient_sink;
    Alcotest.test_case "histogram" `Quick test_hist;
    Alcotest.test_case "message taps" `Quick test_tap;
    Alcotest.test_case "tap counter semantics" `Quick test_tap_semantics;
    Alcotest.test_case "stall accounts" `Quick test_stall_accounts;
    Alcotest.test_case "stall reason names" `Quick
      test_stall_reason_names_roundtrip;
    Alcotest.test_case "stall counter semantics" `Quick test_stall_semantics;
    Alcotest.test_case "metrics envelope" `Quick test_metrics_envelope;
    Alcotest.test_case "perfetto parse-back" `Quick test_perfetto_parse_back;
    Alcotest.test_case "trace determinism" `Quick test_trace_deterministic;
    Alcotest.test_case "figure-3 stall attribution" `Quick
      test_figure3_attribution;
    QCheck_alcotest.to_alcotest prop_stall_accounting_consistent;
  ]
