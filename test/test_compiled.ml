(* Tests for the compiled hot path: Prog_compile lowering, the Cinterp
   int-machine, packed state keys, and the off-heap visited table.  The
   contract is equivalence — the compiled interpreter must be
   observationally identical to the AST interpreter (its oracle) under
   every schedule, and the compiled stateful search must produce the
   results of its AST twin in [Wo_oracle.Enum_ref].  The key/table tests
   pin the packing and claim disciplines the enumerator's soundness
   rests on. *)

module I = Wo_prog.Instr
module P = Wo_prog.Program
module PC = Wo_prog.Prog_compile
module C = Wo_prog.Cinterp
module In = Wo_oracle.Interp
module En = Wo_prog.Enumerate
module Ref = Wo_oracle.Enum_ref
module V = Wo_prog.Visited
module O = Wo_prog.Outcome

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let litmus_programs =
  [
    Wo_litmus.Litmus.figure1.Wo_litmus.Litmus.program;
    Wo_litmus.Litmus.message_passing.Wo_litmus.Litmus.program;
    Wo_litmus.Litmus.dekker_sync.Wo_litmus.Litmus.program;
    Wo_litmus.Litmus.atomicity.Wo_litmus.Litmus.program;
    Wo_litmus.Litmus.coherence.Wo_litmus.Litmus.program;
  ]

(* A deterministic schedule source: a seeded LCG picking an index into
   the current runnable list.  Both interpreters are driven by the same
   choice stream, so any observable divergence is the interpreter's. *)
let lcg seed =
  let s = ref (seed land 0x3FFFFFFF) in
  fun bound ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod bound

(* Run both interpreters in lockstep under one schedule, asserting
   observable equality at every step; returns false on any divergence.
   [max_steps] bounds spin-lock programs (the equality assertions still
   ran for every step taken). *)
let lockstep_equal ?(max_steps = 2000) seed program =
  match PC.compile program with
  | None -> true (* not lowerable: nothing to compare *)
  | Some cp ->
    let pick = lcg seed in
    let rec go ast cst steps =
      let ast_run = In.runnable ast in
      let c_run = C.runnable cst in
      ast_run = c_run
      && In.memory ast = C.memory cst
      && In.events_so_far ast = C.events_so_far cst
      && List.for_all (fun p -> In.peek ast p = C.peek cst p) ast_run
      &&
      match ast_run with
      | [] -> O.equal (In.outcome ast) (C.outcome cst)
      | _ when steps >= max_steps -> true
      | procs ->
        let p = List.nth procs (pick (List.length procs)) in
        let ast', ev_a = In.step ast p in
        let cst', ev_c = C.step cst p in
        ev_a = ev_c && go ast' cst' (steps + 1)
    in
    go (In.init program) (C.init cp) 0

let prop_lockstep_racy =
  QCheck.Test.make
    ~name:
      "compiled interpreter equals the AST interpreter in lockstep on \
       random racy programs (runnable, peek, memory, events, outcome)"
    ~count:60 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:3 ~ops_per_proc:4
          ~locs:2 ()
      in
      List.for_all
        (fun sseed -> lockstep_equal sseed program)
        [ 1; 42; 1 + (7 * pseed) ])

let prop_lockstep_lock_disciplined =
  (* Spin locks exercise Tas, While and If lowering — control flow the
     racy generator never emits. *)
  QCheck.Test.make
    ~name:
      "compiled interpreter equals the AST interpreter in lockstep on \
       lock-disciplined (looping) programs"
    ~count:30 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.lock_disciplined ~seed:pseed ~procs:2
          ~sections_per_proc:1 ~ops_per_section:2 ~shared_locs:2 ~locks:1 ()
      in
      List.for_all
        (fun sseed -> lockstep_equal sseed program)
        [ 3; 1 + (11 * pseed) ])

let test_lockstep_litmus () =
  List.iter
    (fun program ->
      List.iter
        (fun seed ->
          check "lockstep equal on litmus" true (lockstep_equal seed program))
        [ 0; 1; 2; 3; 4 ])
    litmus_programs

(* [Cinterp.run_random] makes the AST interpreter's scheduler draws: the
   same execution (every event) and the same outcome at every seed — what
   the ideal machine and [wo check]'s sampler rely on. *)
let prop_run_random_matches_ast =
  QCheck.Test.make
    ~name:"Cinterp.run_random = Interp.run_random on random programs"
    ~count:40 QCheck.small_int (fun pseed ->
      List.for_all
        (fun program ->
          let cp = Option.get (PC.compile program) in
          List.for_all
            (fun seed ->
              let a = In.run_random ~seed program
              and c = C.run_random ~seed cp in
              Wo_core.Execution.events (In.execution a)
              = Wo_core.Execution.events (C.execution c)
              && O.equal (In.outcome a) (C.outcome c))
            [ pseed; pseed + 1; 7 * pseed ])
        [
          Wo_synth.Synth.racy ~seed:pseed ~procs:3 ~ops_per_proc:4 ~locs:2 ();
          Wo_synth.Synth.lock_disciplined ~seed:pseed ~procs:3
            ~sections_per_proc:2 ~ops_per_section:2 ~shared_locs:2 ~locks:2 ();
        ])

(* --- packed keys ------------------------------------------------------------ *)

(* Equal keys must imply equal observable snapshots: walk every state of
   a small program's reachable graph and compare key-equality against a
   full observable snapshot (runnable + pending accesses + memory +
   event count + outcome).  The converse (distinct snapshots get
   distinct keys) is implied by the same table. *)
let prop_exact_key_separates =
  QCheck.Test.make
    ~name:"exact_key equality coincides with observable-snapshot equality"
    ~count:40 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3
          ~locs:2 ()
      in
      match PC.compile program with
      | None -> true
      | Some cp ->
        let snapshot st =
          ( C.events_so_far st,
            C.runnable st,
            List.map (C.peek st) (C.runnable st),
            C.memory st,
            C.outcome st )
        in
        let states = ref [] in
        let seen = Hashtbl.create 64 in
        let rec walk st =
          let k = C.exact_key st in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            states := (k, snapshot st) :: !states;
            List.iter (fun p -> walk (fst (C.step st p))) (C.runnable st)
          end
        in
        walk (C.init cp);
        List.for_all
          (fun (k1, s1) ->
            List.for_all
              (fun (k2, s2) -> (k1 = k2) = (s1 = s2) || (k1 <> k2 && s1 = s2))
              !states
          (* distinct keys may still map to equal snapshots (the key also
             separates on registers and pcs the snapshot cannot see), but
             equal keys must never join distinct snapshots *))
          !states)

let test_exact_key_distinguishes_event_count () =
  (* Same memory and pcs-to-go can differ in how many events were spent
     reaching them; the key must separate those (the max_events budget
     differs).  Two writes of the same value: after 1 and after 2 steps
     memory is identical but the event counts differ. *)
  let p = P.make [ [ I.Write (0, I.Const 1); I.Write (0, I.Const 1) ] ] in
  match PC.compile p with
  | None -> Alcotest.fail "trivial program must compile"
  | Some cp ->
    let s0 = C.init cp in
    let s1 = fst (C.step s0 0) in
    let s2 = fst (C.step s1 0) in
    check "three distinct keys along the chain" true
      (C.exact_key s0 <> C.exact_key s1
      && C.exact_key s1 <> C.exact_key s2
      && C.exact_key s0 <> C.exact_key s2)

(* --- engine identity in the enumerator -------------------------------------- *)

let prop_engines_agree_on_outcomes =
  QCheck.Test.make
    ~name:"outcomes_stateful: compiled engine equals AST engine"
    ~count:40 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3
          ~locs:2 ()
      in
      let reference, _ = Ref.outcomes_stateful program in
      List.for_all
        (fun domains ->
          Ref.outcome_sets_equal reference
            (fst (En.outcomes_stateful ~domains program)))
        [ 1; 3 ])

let prop_engines_agree_on_drf0 =
  QCheck.Test.make
    ~name:
      "check_drf0_stateful: compiled engine's verdict and racy report \
       equal the AST engine's, with and without symmetry"
    ~count:30 QCheck.small_int (fun pseed ->
      let program =
        Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3
          ~locs:2 ()
      in
      let reference, _ = Ref.check_drf0_stateful program in
      List.for_all
        (fun (symmetry, domains) ->
          Ref.reports_agree reference
            (fst (En.check_drf0_stateful ~symmetry ~domains program)))
        [ (true, 1); (false, 1); (true, 3) ])

let test_engines_agree_on_litmus () =
  List.iter
    (fun program ->
      let ast_outs, _ = Ref.outcomes_stateful program in
      let c_outs, _ = En.outcomes_stateful program in
      check "litmus outcome sets equal across engines" true
        (Ref.outcome_sets_equal ast_outs c_outs);
      let ast_r, _ = Ref.check_drf0_stateful program in
      let c_r, _ = En.check_drf0_stateful program in
      check "litmus DRF0 reports equal across engines" true
        (Ref.reports_agree ast_r c_r))
    litmus_programs

let test_long_thread_compiles () =
  (* Code length is not a packing bound: a store-buffering test behind
     5,000 local steps compiles, and both searches agree with the AST
     walks. *)
  let p =
    P.make
      [
        List.init 5000 (fun _ -> I.Nop)
        @ [ I.Write (0, I.Const 1); I.Read (0, 1) ];
        [ I.Write (1, I.Const 1); I.Read (0, 0) ];
      ]
  in
  check "a 5,000-op thread is compilable" true (PC.compilable p);
  check "outcome set equals the AST walk's" true
    (Ref.outcome_sets_equal
       (fst (Ref.outcomes_stateful p))
       (fst (En.outcomes_stateful ~domains:1 p)));
  check "DRF0 report equals the AST walk's" true
    (Ref.reports_agree
       (fst (Ref.check_drf0_stateful p))
       (fst (En.check_drf0_stateful ~domains:1 p)))

let test_uncompilable_raises () =
  (* Beyond the 16-bit location index the program cannot be packed, and
     there is no other engine: both searches raise. *)
  let p =
    P.make
      ~initial:(List.init 0x10000 (fun l -> (l, 0)))
      [ [ I.Write (0, I.Const 1) ] ]
  in
  check "program is beyond compiler bounds" false (PC.compilable p);
  let raises f =
    match f () with _ -> false | exception En.Limit_exceeded -> true
  in
  check "outcomes_stateful raises" true
    (raises (fun () -> En.outcomes_stateful ~domains:1 p));
  check "check_drf0_stateful raises" true
    (raises (fun () -> En.check_drf0_stateful ~domains:1 p))

let test_compile_canonical_encoding_stable () =
  (* The sweep memoizer keys on the canonical encoding: structurally
     identical programs (same threads, initial memory, observability)
     must encode equal; observably different ones must not. *)
  let mk name = P.make ~name [ [ I.Write (0, I.Const 1) ]; [ I.Read (0, 7) ] ] in
  let enc p = Option.get (PC.encode_program p) in
  check "names do not affect the encoding" true
    (enc (mk "a") = enc (mk "b"));
  let q = P.make [ [ I.Write (0, I.Const 2) ]; [ I.Read (0, 7) ] ] in
  check "different constants encode differently" true (enc (mk "a") <> enc q)

(* --- the off-heap visited table --------------------------------------------- *)

let test_visited_grow_and_arena () =
  (* Push the table far past its initial capacity with distinct keys of
     assorted lengths: every key must stay claimed across growth and
     arena chunk turnover, and the accounting must add up. *)
  let t = V.create ~shards:2 () in
  let key i = Printf.sprintf "key-%d-%s" i (String.make (i mod 97) 'x') in
  let n = 20_000 in
  for i = 0 to n - 1 do
    match V.try_claim t (key i) 0 with
    | `Explore _ -> ()
    | `Skip -> Alcotest.fail "fresh key must explore"
  done;
  check_int "all keys distinct" n (V.size t);
  for i = 0 to n - 1 do
    match V.try_claim t (key i) 0 with
    | `Skip -> ()
    | `Explore _ -> Alcotest.fail "claimed key must skip"
  done;
  check_int "every revisit hit" n (V.hits t);
  check "arena holds at least the raw key bytes" true
    (V.arena_bytes t
    >= List.fold_left ( + ) 0 (List.init n (fun i -> String.length (key i))));
  check_int "probe histogram counts every first claim" n
    (Array.fold_left ( + ) 0 (V.probe_hist t))

let test_visited_widen_survives_growth () =
  (* The sleep-narrowing discipline (test_statespace pins it on a fresh
     table) must also hold for entries that have been rehashed by
     growth. *)
  let t = V.create ~shards:1 () in
  (match V.try_claim t "subject" 0b11 with
  | `Explore _ -> ()
  | `Skip -> Alcotest.fail "first claim explores");
  (* Force several growth cycles over the subject's stripe. *)
  for i = 0 to 5_000 do
    ignore (V.try_claim t (Printf.sprintf "filler-%d" i) 0)
  done;
  (match V.try_claim t "subject" 0b01 with
  | `Explore s -> check_int "narrower claim re-explores with intersection" 0b01 s
  | `Skip -> Alcotest.fail "narrower claim must re-explore after growth");
  match V.try_claim t "subject" 0b11 with
  | `Skip -> ()
  | `Explore _ -> Alcotest.fail "covered claim must skip after growth"

(* --- canonical DRF0 key identity ------------------------------------------- *)

(* Walk the state DAG under every schedule, carrying an incremental
   checker along the path like the search does, and require the
   production key (read in place, per-walk workspace) to equal the
   summary-based reference byte for byte, key and arrangement, with and
   without symmetry.  States are deduplicated on the reference's
   symmetry-free key; [budget] bounds the walk on large programs. *)
let canonical_identity ?(max_events = 24) ?(budget = 3000) program =
  match PC.compile program with
  | None -> true
  | Some cp ->
    let inc = Wo_core.Drf0_inc.create ~nprocs:cp.PC.nprocs () in
    let workspace = C.key_workspace cp in
    let seen = Hashtbl.create 256 in
    let ok = ref true and left = ref budget in
    let same symmetry st sm =
      let key, order = C.canonical_key ~symmetry workspace st inc in
      let key', order' = Canonical_ref.canonical_key ~symmetry st sm in
      if not (String.equal key key' && order = order') then ok := false;
      key'
    in
    let rec go st =
      if !ok && !left > 0 && C.events_so_far st <= max_events then begin
        let sm = Wo_core.Drf0_inc.summary inc in
        ignore (same true st sm);
        let raw = same false st sm in
        if not (Hashtbl.mem seen raw) then begin
          Hashtbl.add seen raw ();
          decr left;
          List.iter
            (fun p ->
              match C.step st p with
              | st', None -> go st'
              | st', Some e ->
                ignore (Wo_core.Drf0_inc.push inc e);
                go st';
                Wo_core.Drf0_inc.pop inc)
            (C.runnable st)
        end
      end
    in
    go (C.init cp);
    !ok

(* [procs] identical threads of sync writes to one location: every
   thread permutation is an automorphism, so up to four threads take the
   multi-arrangement path and five or more the 24-arrangement cap. *)
let mirrored_sync ~procs ~len =
  P.make
    (List.init procs (fun _ ->
         List.init len (fun _ -> I.Sync_write (0, I.Const 1))))

(* Symmetric threads over private locations with registers: the
   location renaming and the register half of the signature matter. *)
let mirrored_private ~procs =
  P.make
    (List.init procs (fun p ->
         [
           I.Write (10 + p, I.Const 1);
           I.Sync_write (0, I.Const (p mod 2));
           I.Read (1, 10 + p);
           I.Sync_read (2, 0);
         ]))

let test_canonical_key_identity_symmetric () =
  List.iter
    (fun (name, program) ->
      check (name ^ ": key equals the reference") true
        (canonical_identity program))
    [
      ("mirrored_sync x3", mirrored_sync ~procs:3 ~len:2);
      ("mirrored_sync x4", mirrored_sync ~procs:4 ~len:2);
      ("mirrored_sync x5 (cap)", mirrored_sync ~procs:5 ~len:1);
      ("mirrored_sync x6 (cap)", mirrored_sync ~procs:6 ~len:1);
      ("mirrored_private x3", mirrored_private ~procs:3);
      ("mirrored_private x5 (cap)", mirrored_private ~procs:5);
    ]

let test_canonical_key_identity_litmus () =
  List.iter
    (fun program ->
      check "litmus key equals the reference" true
        (canonical_identity program))
    litmus_programs

let prop_canonical_key_identity_racy =
  QCheck.Test.make
    ~name:
      "canonical_key equals the summary-based reference on random racy \
       programs (every DAG node, symmetry on and off)"
    ~count:40 QCheck.small_int (fun pseed ->
      canonical_identity
        (Wo_synth.Synth.racy ~seed:pseed ~procs:3 ~ops_per_proc:3 ~locs:2 ()))

let prop_canonical_key_identity_lock_disciplined =
  QCheck.Test.make
    ~name:
      "canonical_key equals the summary-based reference on random \
       lock-disciplined programs"
    ~count:20 QCheck.small_int (fun pseed ->
      canonical_identity ~max_events:16
        (Wo_synth.Synth.lock_disciplined ~seed:pseed ~procs:3
           ~sections_per_proc:1 ~ops_per_section:1 ()))

let test_hash64_deterministic_and_spread () =
  let h = V.hash64 "some-state-key" in
  check "hash is deterministic" true (h = V.hash64 "some-state-key");
  check "hash is non-negative" true (h >= 0);
  let distinct =
    List.sort_uniq compare
      (List.init 1000 (fun i -> V.hash64 (string_of_int i)))
  in
  check_int "no collisions across 1000 short keys" 1000 (List.length distinct)

let tests =
  [
    Alcotest.test_case "lockstep equal on litmus" `Quick test_lockstep_litmus;
    Alcotest.test_case "exact_key separates event counts" `Quick
      test_exact_key_distinguishes_event_count;
    Alcotest.test_case "engines agree on litmus" `Quick
      test_engines_agree_on_litmus;
    Alcotest.test_case "long threads compile" `Quick test_long_thread_compiles;
    Alcotest.test_case "uncompilable programs raise" `Quick
      test_uncompilable_raises;
    Alcotest.test_case "canonical encoding is stable" `Quick
      test_compile_canonical_encoding_stable;
    Alcotest.test_case "visited grows without losing claims" `Quick
      test_visited_grow_and_arena;
    Alcotest.test_case "widen discipline survives growth" `Quick
      test_visited_widen_survives_growth;
    Alcotest.test_case "hash64 deterministic" `Quick
      test_hash64_deterministic_and_spread;
    QCheck_alcotest.to_alcotest prop_lockstep_racy;
    QCheck_alcotest.to_alcotest prop_lockstep_lock_disciplined;
    QCheck_alcotest.to_alcotest prop_run_random_matches_ast;
    QCheck_alcotest.to_alcotest prop_exact_key_separates;
    QCheck_alcotest.to_alcotest prop_engines_agree_on_outcomes;
    QCheck_alcotest.to_alcotest prop_engines_agree_on_drf0;
    Alcotest.test_case "canonical key identity: symmetric threads" `Quick
      test_canonical_key_identity_symmetric;
    Alcotest.test_case "canonical key identity: litmus" `Quick
      test_canonical_key_identity_litmus;
    QCheck_alcotest.to_alcotest prop_canonical_key_identity_racy;
    QCheck_alcotest.to_alcotest prop_canonical_key_identity_lock_disciplined;
  ]
