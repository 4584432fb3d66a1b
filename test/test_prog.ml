(* Tests for the program representation and the idealized interpreter. *)

module I = Wo_prog.Instr
module P = Wo_prog.Program
module In = Wo_oracle.Interp
module E = Wo_core.Event
module N = Wo_prog.Names

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let env_of l r = match List.assoc_opt r l with Some v -> v | None -> 0

let test_eval_expr () =
  let env = env_of [ (0, 10); (1, 3) ] in
  check_int "const" 5 (I.eval_expr env (I.Const 5));
  check_int "reg" 10 (I.eval_expr env (I.Reg 0));
  check_int "add" 13 (I.eval_expr env (I.Add (I.Reg 0, I.Reg 1)));
  check_int "sub" 7 (I.eval_expr env (I.Sub (I.Reg 0, I.Reg 1)));
  check_int "mul" 30 (I.eval_expr env (I.Mul (I.Reg 0, I.Reg 1)));
  check_int "nested" 26
    (I.eval_expr env (I.Add (I.Mul (I.Reg 1, I.Const 2), I.Mul (I.Reg 0, I.Const 2))))

let test_eval_cond () =
  let env = env_of [ (0, 1) ] in
  check "eq" true (I.eval_cond env (I.Eq (I.Reg 0, I.Const 1)));
  check "ne" false (I.eval_cond env (I.Ne (I.Reg 0, I.Const 1)));
  check "lt" true (I.eval_cond env (I.Lt (I.Const 0, I.Reg 0)));
  check "le" true (I.eval_cond env (I.Le (I.Reg 0, I.Const 1)))

let nested_block =
  [
    I.Read (0, 3);
    I.If
      ( I.Eq (I.Reg 0, I.Const 0),
        [ I.Write (4, I.Const 1) ],
        [ I.While (I.Ne (I.Reg 1, I.Const 0), [ I.Sync_read (1, 5) ]) ] );
    I.Test_and_set (2, 6);
  ]

let test_static_analysis () =
  Alcotest.(check (list int)) "locs" [ 3; 4; 5; 6 ] (I.memory_locs nested_block);
  Alcotest.(check (list int)) "regs" [ 0; 1; 2 ] (I.regs nested_block)

let test_program_basics () =
  let p = P.make ~name:"t" ~initial:[ (9, 42) ] [ nested_block; [] ] in
  check_int "procs" 2 (P.num_procs p);
  Alcotest.(check (list int)) "locs include initialized" [ 3; 4; 5; 6; 9 ]
    (P.locs p);
  check_int "initial value" 42 (P.initial_value p 9);
  check_int "default initial" 0 (P.initial_value p 3);
  check "has loops" true (P.has_loops p);
  check "no loops" false
    (P.has_loops (P.make [ [ I.Read (0, 0) ] ]))

let test_single_thread_deterministic () =
  let p =
    P.make
      [
        [
          I.Write (0, I.Const 5);
          I.Read (0, 0);
          I.Assign (1, I.Add (I.Reg 0, I.Const 1));
          I.Write (1, I.Reg 1);
        ];
      ]
  in
  let state = In.run_round_robin p in
  let o = In.outcome state in
  check_int "r0" 5 (Option.get (Wo_prog.Outcome.register o 0 0));
  check_int "r1" 6 (Option.get (Wo_prog.Outcome.register o 0 1));
  check_int "mem y" 6 (Option.get (Wo_prog.Outcome.memory_value o 1))

let test_test_and_set_semantics () =
  let p = P.make [ [ I.Test_and_set (0, 0); I.Test_and_set (1, 0) ] ] in
  let o = In.outcome (In.run_round_robin p) in
  check_int "first TAS reads 0" 0 (Option.get (Wo_prog.Outcome.register o 0 0));
  check_int "second TAS reads 1" 1 (Option.get (Wo_prog.Outcome.register o 0 1));
  check_int "location left at 1" 1 (Option.get (Wo_prog.Outcome.memory_value o 0))

let test_fetch_and_add_semantics () =
  let p =
    P.make
      [ [ I.Fetch_and_add (0, 0, I.Const 3); I.Fetch_and_add (1, 0, I.Const 3) ] ]
  in
  let o = In.outcome (In.run_round_robin p) in
  check_int "first FAA reads 0" 0 (Option.get (Wo_prog.Outcome.register o 0 0));
  check_int "second FAA reads 3" 3 (Option.get (Wo_prog.Outcome.register o 0 1));
  check_int "final" 6 (Option.get (Wo_prog.Outcome.memory_value o 0))

let test_initial_memory_respected () =
  let p = P.make ~initial:[ (0, 7) ] [ [ I.Read (0, 0) ] ] in
  let o = In.outcome (In.run_round_robin p) in
  check_int "reads initial" 7 (Option.get (Wo_prog.Outcome.register o 0 0))

let test_observable_filtering () =
  let p =
    P.make ~observable:[ (0, 1) ]
      [ [ I.Read (0, 0); I.Read (1, 0) ] ]
  in
  let o = In.outcome (In.run_round_robin p) in
  check "r0 hidden" true (Wo_prog.Outcome.register o 0 0 = None);
  check "r1 visible" true (Wo_prog.Outcome.register o 0 1 <> None)

let test_local_divergence () =
  let p = P.make [ [ I.While (I.Eq (I.Const 0, I.Const 0), [ I.Nop ]) ] ] in
  check "register-only infinite loop detected" true
    (try
       ignore (In.run_round_robin p);
       false
     with In.Local_divergence 0 -> true)

let test_step_events () =
  let p =
    P.make [ [ I.Write (0, I.Const 1) ]; [ I.Read (0, 0) ] ]
  in
  let state = In.init p in
  check "both runnable" true (In.runnable state = [ 0; 1 ]);
  let state, ev = In.step state 0 in
  (match ev with
  | Some e ->
    check "write event" true (e.E.kind = E.Data_write);
    check_int "written value" 1 (Option.get e.E.written_value)
  | None -> Alcotest.fail "expected an event");
  let state, ev = In.step state 1 in
  (match ev with
  | Some e -> check_int "read sees write" 1 (Option.get e.E.read_value)
  | None -> Alcotest.fail "expected a read event");
  check "finished" true (In.finished state);
  check_int "two events" 2 (In.events_so_far state)

let test_step_invalid () =
  let p = P.make [ [] ] in
  let state = In.init p in
  check "empty thread is not runnable" true (In.runnable state = []);
  check "finished from the start" true (In.finished state);
  Alcotest.check_raises "stepping a finished thread"
    (Invalid_argument "Interp.step: processor already finished") (fun () ->
      ignore (In.step state 0))

let test_execution_of_run () =
  let p = Wo_litmus.Litmus.figure1.Wo_litmus.Litmus.program in
  let state = In.run_random ~seed:1 p in
  let exn = In.execution state in
  check_int "four events" 4 (Wo_core.Execution.size exn);
  check "execution is SC" true (Wo_oracle.Sc.is_sequentially_consistent exn)

let test_snippets_acquire_release () =
  (* A two-processor lock protocol built from the snippets ends with the
     lock free and the counter at 2. *)
  let body = [ I.Read (0, 1); I.Write (1, I.Add (I.Reg 0, I.Const 1)) ] in
  let thread =
    Wo_prog.Snippets.critical_section ~lock:0 ~scratch:4 body
  in
  let p = P.make ~observable:[] [ thread; thread ] in
  let o = In.outcome (In.run_random ~seed:2 p) in
  check_int "counter" 2 (Option.get (Wo_prog.Outcome.memory_value o 1));
  check_int "lock free" 0 (Option.get (Wo_prog.Outcome.memory_value o 0))

let test_snippets_ttas () =
  let body = [ I.Read (0, 1); I.Write (1, I.Add (I.Reg 0, I.Const 1)) ] in
  let thread =
    Wo_prog.Snippets.critical_section ~lock:0 ~scratch:4 ~use_ttas:true
      ~scratch2:5 body
  in
  let p = P.make ~observable:[] [ thread; thread; thread ] in
  let o = In.outcome (In.run_random ~seed:3 p) in
  check_int "counter" 3 (Option.get (Wo_prog.Outcome.memory_value o 1))

let test_snippets_barrier () =
  let thread p =
    [ I.Write (p, I.Const (p + 1)) ]
    @ Wo_prog.Snippets.barrier_wait ~counter:9 ~participants:3 ~scratch:4
        ~spin:5
    @ [ I.Read (0, (p + 1) mod 3) ]
  in
  let p = P.make ~observable:[ (0, 0); (1, 0); (2, 0) ] [ thread 0; thread 1; thread 2 ] in
  let o = In.outcome (In.run_random ~seed:4 p) in
  check_int "P0 reads P1's slot" 2 (Option.get (Wo_prog.Outcome.register o 0 0));
  check_int "P2 reads P0's slot" 1 (Option.get (Wo_prog.Outcome.register o 2 0))

let test_names () =
  check_int "x" 0 N.x;
  check_int "s" 6 N.s;
  check "distinct" true (List.length (List.sort_uniq compare [ N.x; N.y; N.z; N.a; N.b; N.c; N.s; N.t; N.u ]) = 9)

let tests =
  [
    Alcotest.test_case "eval_expr" `Quick test_eval_expr;
    Alcotest.test_case "eval_cond" `Quick test_eval_cond;
    Alcotest.test_case "static analysis" `Quick test_static_analysis;
    Alcotest.test_case "program basics" `Quick test_program_basics;
    Alcotest.test_case "single-thread determinism" `Quick
      test_single_thread_deterministic;
    Alcotest.test_case "TestAndSet semantics" `Quick test_test_and_set_semantics;
    Alcotest.test_case "FetchAndAdd semantics" `Quick
      test_fetch_and_add_semantics;
    Alcotest.test_case "initial memory" `Quick test_initial_memory_respected;
    Alcotest.test_case "observable registers" `Quick test_observable_filtering;
    Alcotest.test_case "local divergence" `Quick test_local_divergence;
    Alcotest.test_case "stepping produces events" `Quick test_step_events;
    Alcotest.test_case "empty thread" `Quick test_step_invalid;
    Alcotest.test_case "execution of a run" `Quick test_execution_of_run;
    Alcotest.test_case "snippets: lock" `Quick test_snippets_acquire_release;
    Alcotest.test_case "snippets: test-and-test-and-set" `Quick
      test_snippets_ttas;
    Alcotest.test_case "snippets: barrier" `Quick test_snippets_barrier;
    Alcotest.test_case "names" `Quick test_names;
  ]
