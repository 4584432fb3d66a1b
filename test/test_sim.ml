(* Tests for the simulation substrate: RNG, engine, stats, trace. *)

module Rng = Wo_sim.Rng
module Engine = Wo_sim.Engine
module Stats = Wo_sim.Stats
module Trace = Wo_sim.Trace
module E = Wo_core.Event
module R = Wo_core.Relation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- rng ------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let sa = List.init 20 (fun _ -> Rng.int a 1000) in
  let sb = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" sa sb

let test_rng_seeds_differ () =
  let a = Rng.make 1 and b = Rng.make 2 in
  let sa = List.init 10 (fun _ -> Rng.int a 1000000) in
  let sb = List.init 10 (fun _ -> Rng.int b 1000000) in
  check "different seeds differ" true (sa <> sb)

let test_rng_split () =
  let a = Rng.make 7 in
  let b = Rng.split a in
  let sa = List.init 10 (fun _ -> Rng.int a 1000000) in
  let sb = List.init 10 (fun _ -> Rng.int b 1000000) in
  check "split stream independent" true (sa <> sb)

let test_rng_bounds () =
  let r = Rng.make 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  check_int "int_in singleton" 5 (Rng.int_in r 5 5);
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in r 5 4))

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int stays in range" ~count:500
    QCheck.(pair small_int (1 -- 1000))
    (fun (seed, bound) ->
      let r = Rng.make seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle permutes" ~count:200
    QCheck.(pair small_int (small_list int))
    (fun (seed, l) ->
      let r = Rng.make seed in
      List.sort compare (Rng.shuffle r l) = List.sort compare l)

let test_rng_pick () =
  let r = Rng.make 1 in
  check "pick member" true (List.mem (Rng.pick r [ 1; 2; 3 ]) [ 1; 2; 3 ]);
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick r []))

(* --- engine ---------------------------------------------------------------- *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5 (fun () -> log := 5 :: !log);
  Engine.schedule e ~delay:1 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:3 (fun () -> log := 3 :: !log);
  check "runs to idle" true (Engine.run e = `Idle);
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  check_int "clock at last event" 5 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:2 (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "FIFO within a tick" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1 (fun () ->
      log := "a" :: !log;
      Engine.schedule e ~delay:0 (fun () -> log := "b" :: !log);
      Engine.schedule e ~delay:2 (fun () -> log := "c" :: !log));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "nested" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_limits () =
  let e = Engine.create () in
  let rec forever () = Engine.schedule e ~delay:1 forever in
  forever ();
  check "event limit" true (Engine.run ~max_events:100 e = `Event_limit);
  let e2 = Engine.create () in
  let rec tick () = Engine.schedule e2 ~delay:10 tick in
  tick ();
  check "time limit" true (Engine.run ~max_time:50 e2 = `Time_limit)

let test_engine_past_raises () =
  let e = Engine.create () in
  Engine.schedule e ~delay:5 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
        (fun () -> Engine.schedule_at e ~time:1 (fun () -> ())));
  ignore (Engine.run e)

let test_engine_pending () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1 (fun () -> ());
  Engine.schedule e ~delay:2 (fun () -> ());
  check_int "pending" 2 (Engine.pending e);
  ignore (Engine.run e);
  check_int "drained" 0 (Engine.pending e)

(* The heap engine against the retained map-of-lists oracle
   (Wo_oracle.Engine_ref): arbitrary schedule/schedule_at sequences —
   including same-tick bursts and scheduling from inside handlers — must
   execute in the identical order with identical clock readings. *)

let run_random_schedule (module E : Wo_sim.Engine.S) ~seed ~ops =
  let rng = Rng.make seed in
  let e = E.create () in
  let log = ref [] in
  let next = ref 0 in
  let rec spawn_from_handler () =
    match Rng.int rng 3 with
    | 0 -> ()
    | n ->
      for _ = 1 to n do
        if !next < ops then begin
          let id = !next in
          incr next;
          (* delay 0 exercises the same-tick "after the current batch"
             rule; the rest spreads events over a few ticks *)
          E.schedule e ~delay:(Rng.int rng 4) (handler id)
        end
      done
  and handler id () =
    log := (id, E.now e) :: !log;
    spawn_from_handler ()
  in
  for _ = 1 to 8 do
    if !next < ops then begin
      let id = !next in
      incr next;
      if Rng.int rng 2 = 0 then E.schedule e ~delay:(Rng.int rng 6) (handler id)
      else E.schedule_at e ~time:(E.now e + Rng.int rng 6) (handler id)
    end
  done;
  let stop = E.run e in
  (List.rev !log, stop, E.now e, E.pending e)

let prop_engine_matches_reference =
  QCheck.Test.make
    ~name:"heap engine executes random schedules identically to Reference"
    ~count:300 QCheck.small_int (fun seed ->
      run_random_schedule (module Engine) ~seed ~ops:200
      = run_random_schedule (module Wo_oracle.Engine_ref) ~seed ~ops:200)

let test_engine_reference_time_limit () =
  (* max_time stops both engines at the same boundary (max_events is
     documented to differ within a tick, so only max_time is compared). *)
  let run (module E : Wo_sim.Engine.S) =
    let e = E.create () in
    let log = ref [] in
    let rec tick i () =
      log := i :: !log;
      E.schedule e ~delay:7 (tick (i + 1))
    in
    E.schedule e ~delay:0 (tick 0);
    let stop = E.run ~max_time:50 e in
    (List.rev !log, stop, E.now e)
  in
  check "same under max_time" true
    (run (module Engine) = run (module Wo_oracle.Engine_ref))

let test_machine_trace_deterministic () =
  (* Per-seed byte identity of a full machine run on the heap engine:
     what `wo trace` prints must not depend on anything but the seed. *)
  let machine = Wo_machines.Presets.wo_new in
  let program =
    Wo_litmus.Litmus.dekker_sync.Wo_litmus.Litmus.program
  in
  List.iter
    (fun seed ->
      let digest () =
        let r = Wo_machines.Machine.run machine ~seed program in
        Digest.string
          (Format.asprintf "%a" Trace.pp r.Wo_machines.Machine.trace)
      in
      check (Printf.sprintf "seed %d" seed) true (digest () = digest ()))
    [ 1; 2; 3 ]

(* --- stats ------------------------------------------------------------------ *)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 10;
  Stats.max_to s "m" 5;
  Stats.max_to s "m" 3;
  check_int "incr" 2 (Stats.get s "a");
  check_int "add" 10 (Stats.get s "b");
  check_int "max keeps max" 5 (Stats.get s "m");
  check_int "missing is zero" 0 (Stats.get s "zzz");
  let s2 = Stats.create () in
  Stats.add s2 "a" 3;
  let m = Stats.merge s s2 in
  check_int "merge sums" 5 (Stats.get m "a");
  Alcotest.(check (list (pair string int)))
    "to_list sorted"
    [ ("a", 2); ("b", 10); ("m", 5) ]
    (Stats.to_list s)

(* Which counters are listed, and when: by-name updates only, so the
   same checks hold for any slot layout behind the names. *)
let test_stats_semantics () =
  let listed = Alcotest.(check (list (pair string int))) in
  let s = Stats.create () in
  Stats.incr s "bus.messages";
  check_int "reading a name lists nothing" 0 (Stats.get s "cache.hits");
  listed "only touched names" [ ("bus.messages", 1) ] (Stats.to_list s);
  Stats.max_to s "model.occupancy.max" 0;
  Stats.max_to s "model.neg" (-3);
  listed "max_to with n <= 0 lists nothing" [ ("bus.messages", 1) ]
    (Stats.to_list s);
  Stats.add s "dir.recalls" 0;
  listed "add name 0 lists it at 0"
    [ ("bus.messages", 1); ("dir.recalls", 0) ]
    (Stats.to_list s);
  (* A name built at run time reaches the counter its literal names. *)
  let built = String.concat "." [ "bus"; "messages" ] in
  Stats.incr s built;
  Stats.add s (String.sub "xbus.messages" 1 12) 3;
  check_int "equal strings share a counter" 5 (Stats.get s "bus.messages");
  check_int "read by an equal string" 5 (Stats.get s built);
  Stats.max_to s "model.occupancy.max" 4;
  Stats.max_to s "model.occupancy.max" 2;
  check_int "max_to keeps the maximum" 4 (Stats.get s "model.occupancy.max");
  Stats.clear s;
  listed "clear then to_list" [] (Stats.to_list s);
  check_int "cleared counter reads 0" 0 (Stats.get s "bus.messages");
  Stats.incr s "bus.messages";
  listed "counting resumes after clear" [ ("bus.messages", 1) ]
    (Stats.to_list s)

(* --- trace ------------------------------------------------------------------ *)

let entry ~id ~proc ~seq ~kind ~loc ~c =
  {
    Trace.event = E.make ~id ~proc ~seq ~kind ~loc ();
    issued = c - 1;
    committed = c;
    performed = c + 1;
  }

let sample_trace () =
  let t = Trace.create () in
  Trace.add t (entry ~id:0 ~proc:0 ~seq:0 ~kind:E.Data_write ~loc:0 ~c:10);
  Trace.add t (entry ~id:1 ~proc:1 ~seq:0 ~kind:E.Sync_write ~loc:6 ~c:5);
  Trace.add t (entry ~id:2 ~proc:0 ~seq:1 ~kind:E.Sync_rmw ~loc:6 ~c:20);
  t

let test_trace_commit_order () =
  let t = sample_trace () in
  Alcotest.(check (list int)) "sorted by commit" [ 1; 0; 2 ]
    (List.map (fun (e : E.t) -> e.E.id) (Trace.events t));
  check_int "size" 3 (Trace.size t)

let test_trace_issue_order () =
  let t = sample_trace () in
  Alcotest.(check (list int)) "sorted by issue" [ 1; 0; 2 ]
    (List.map
       (fun (e : Trace.entry) -> e.Trace.event.E.id)
       (Trace.entries_by_issue t))

let test_trace_program_order () =
  let t = sample_trace () in
  let po = Trace.program_order t in
  check "P0 seq order" true (R.mem 0 2 po);
  check "no cross-proc" false (R.mem 1 0 po)

let test_trace_sync_commit_order () =
  let t = sample_trace () in
  let so = Trace.sync_commit_order t in
  check "sync loc 6: commit 5 before commit 20" true (R.mem 1 2 so);
  check "data op not included" false (R.mem 0 2 so)

let test_trace_find () =
  let t = sample_trace () in
  check "found" true (Trace.find t 1 <> None);
  check "absent" true (Trace.find t 99 = None)

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng split" `Quick test_rng_split;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng pick" `Quick test_rng_pick;
    QCheck_alcotest.to_alcotest prop_rng_int_in_range;
    QCheck_alcotest.to_alcotest prop_shuffle_is_permutation;
    Alcotest.test_case "engine time order" `Quick test_engine_time_order;
    Alcotest.test_case "engine FIFO per tick" `Quick test_engine_fifo_same_time;
    Alcotest.test_case "engine nested scheduling" `Quick
      test_engine_nested_scheduling;
    Alcotest.test_case "engine limits" `Quick test_engine_limits;
    Alcotest.test_case "engine rejects the past" `Quick test_engine_past_raises;
    Alcotest.test_case "engine pending" `Quick test_engine_pending;
    QCheck_alcotest.to_alcotest prop_engine_matches_reference;
    Alcotest.test_case "engine matches Reference under max_time" `Quick
      test_engine_reference_time_limit;
    Alcotest.test_case "machine trace deterministic per seed" `Quick
      test_machine_trace_deterministic;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "stats counter semantics" `Quick test_stats_semantics;
    Alcotest.test_case "trace commit order" `Quick test_trace_commit_order;
    Alcotest.test_case "trace issue order" `Quick test_trace_issue_order;
    Alcotest.test_case "trace program order" `Quick test_trace_program_order;
    Alcotest.test_case "trace sync commit order" `Quick
      test_trace_sync_commit_order;
    Alcotest.test_case "trace find" `Quick test_trace_find;
  ]
