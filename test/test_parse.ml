(* Tests for the litmus text-format parser. *)

module Pa = Wo_litmus.Parse
module L = Wo_litmus.Litmus
module I = Wo_prog.Instr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sb_text =
  "name: sb\nP0: x := 1 ; r0 := y\nP1: y := 1 ; r0 := x\nforbid: P0:r0=0 & P1:r0=0\n"

let test_parse_store_buffering () =
  let t = Pa.of_string sb_text in
  check "name" true (t.L.name = "sb");
  check_int "two processors" 2 (Wo_prog.Program.num_procs t.L.program);
  check "racy" false t.L.drf0;
  check "loop-free" false t.L.loops;
  (* equivalent to the built-in figure1 test: same SC outcome count *)
  check_int "three SC outcomes" 3
    (List.length (Wo_oracle.Enum_ref.outcomes t.L.program));
  (* the forbidden clause matches the impossible outcome *)
  let pred = List.assoc "forbidden" t.L.interesting in
  check "forbidden outcome not in SC set" false
    (List.exists pred (Wo_oracle.Enum_ref.outcomes t.L.program))

let test_parse_statements () =
  let t =
    Pa.of_string
      "name: all\n\
       init: q=7\n\
       P0: r0 := test(s) ; unset(s) ; sync(s, 3) ; r1 := tas(s) ; r2 := \
       faa(q, 2) ; fence ; nop ; nop*3 ; r3 := r1 + 1 ; q := r3\n"
  in
  let instrs = t.L.program.Wo_prog.Program.threads.(0) in
  let kinds =
    List.map
      (function
        | I.Sync_read _ -> "test"
        | I.Sync_write _ -> "syncw"
        | I.Test_and_set _ -> "tas"
        | I.Fetch_and_add _ -> "faa"
        | I.Fence -> "fence"
        | I.Nop -> "nop"
        | I.Assign _ -> "assign"
        | I.Write _ -> "write"
        | I.Read _ -> "read"
        | _ -> "?")
      instrs
  in
  Alcotest.(check (list string))
    "statement kinds"
    [
      "test"; "syncw"; "syncw"; "tas"; "faa"; "fence"; "nop"; "nop"; "nop";
      "nop"; "assign"; "write";
    ]
    kinds;
  (* q is a fresh location initialized to 7 *)
  let q =
    match List.rev instrs with I.Write (l, _) :: _ -> l | _ -> assert false
  in
  check_int "initial value" 7 (Wo_prog.Program.initial_value t.L.program q);
  check "fresh location beyond the conventional ones" true (q >= 9)

let test_conventional_locations () =
  let t = Pa.of_string "name: n\nP0: r0 := x ; r1 := s\n" in
  match t.L.program.Wo_prog.Program.threads.(0) with
  | [ I.Read (_, lx); I.Read (_, ls) ] ->
    check_int "x" Wo_prog.Names.x lx;
    check_int "s" Wo_prog.Names.s ls
  | _ -> Alcotest.fail "unexpected parse"

let test_drf0_flag_computed () =
  let t =
    Pa.of_string "name: d\nP0: sync(s, 1)\nP1: r0 := tas(s)\n"
  in
  check "sync-only program is DRF0" true t.L.drf0

let test_comments_and_blanks () =
  let t =
    Pa.of_string
      "# a comment\n\nname: c  # trailing comment\n\nP0: x := 1\nP1: r0 := x\n"
  in
  check "parsed" true (t.L.name = "c")

let contains message fragment =
  let len = String.length fragment in
  let rec find i =
    i + len <= String.length message
    && (String.sub message i len = fragment || find (i + 1))
  in
  find 0

let expect_error text fragment =
  match Pa.of_string text with
  | exception Pa.Parse_error { message; _ } ->
    check
      (Printf.sprintf "error mentions %S" fragment)
      true (contains message fragment)
  | _ -> Alcotest.fail ("expected a parse error for: " ^ text)

let test_errors () =
  expect_error "P0: x := 1\nP2: y := 1\n" "missing P1";
  expect_error "name: n\n" "no processors";
  expect_error "P0: wibble wobble\n" "cannot parse";
  expect_error "P0: r0 := frob(x)\n" "unknown operation";
  expect_error "P0: x := 1\nP0: y := 1\n" "twice";
  expect_error "bogus: 1\n" "unknown key";
  expect_error "P0: x := 1\nforbid: P0-r0=0\n" "clause";
  (* more events than the DRF0 check explores: undecided, never "racy" *)
  expect_error
    ("P0: " ^ String.concat " ; " (List.init 65 (fun _ -> "x := 1")) ^ "\n")
    "cannot decide DRF0"

let test_file_roundtrip () =
  let t = Pa.of_file "../../../examples/litmus/store_buffering.litmus" in
  check "file parsed" true (t.L.name = "store-buffering")

let test_sync_ring_is_drf0 () =
  let t = Pa.of_file "../../../examples/litmus/sync_ring.litmus" in
  check "sync ring obeys DRF0" true t.L.drf0

let test_processor_limit () =
  let text =
    String.concat ""
      (List.init 64 (fun p -> Printf.sprintf "P%d: r0 := x%d\n" p p))
  in
  match Pa.of_string text with
  | exception Pa.Parse_error { line; message } ->
    check_int "first processor line past the limit"
      (Wo_prog.Program.max_procs + 1) line;
    check "message names the limit" true
      (contains message (string_of_int Wo_prog.Program.max_procs))
  | _ -> Alcotest.fail "expected a parse error for 64 processors"

let test_thread_length_limit () =
  (* Checked before a repetition allocates its ops, so a hundred billion
     nops fail on their line instead of exhausting memory. *)
  let rejected text =
    match Pa.of_string text with
    | exception Pa.Parse_error { line; message } ->
      line = 2 && contains message "65535"
    | _ -> false
  in
  check "huge repetition rejected on its line" true
    (rejected "name: huge\nP0: x := 1 ; nop*100000000000\n");
  check "one op past the limit rejected" true
    (rejected "name: over\nP0: nop*65535 ; x := 1\n");
  let t = Pa.of_string "name: at-limit\nP0: nop*65534 ; x := 1\n" in
  check_int "a thread at the limit parses" 65535
    (List.length t.L.program.Wo_prog.Program.threads.(0))

let test_long_racy_file () =
  (* The DRF0 search stops at the first race, so a racy file parses even
     when its executions are too long to enumerate: the SC search then
     raises, which [wo litmus-file] reports as an error. *)
  let writes = String.concat " ; " (List.init 40 (fun _ -> "x := 1")) in
  let t =
    Pa.of_string
      (Printf.sprintf "P0: %s ; r0 := y\nP1: %s ; r0 := x\n" writes writes)
  in
  check "racy" false t.L.drf0;
  check "SC outcomes beyond the search bound" true
    (match Wo_prog.Enumerate.outcomes_stateful ~domains:1 t.L.program with
    | _ -> false
    | exception Wo_prog.Enumerate.Limit_exceeded -> true)

let test_parsed_test_runs_on_machines () =
  let t = Pa.of_string sb_text in
  let report = Wo_litmus.Runner.run ~runs:30 Wo_machines.Presets.sc_dir t in
  check "runs and appears SC on the SC machine" true
    (Wo_litmus.Runner.appears_sc report);
  let weak =
    Wo_litmus.Runner.run ~runs:60 Wo_machines.Presets.bus_nocache_wb t
  in
  check "violations flagged on the write-buffer machine" false
    (Wo_litmus.Runner.appears_sc weak)

let test_fenced_file_is_sc () =
  let t = Pa.of_file "../../../examples/litmus/sb_fenced.litmus" in
  let report =
    Wo_litmus.Runner.run ~runs:60 Wo_machines.Presets.bus_nocache_wb t
  in
  check "explicit fences restore SC" true (Wo_litmus.Runner.appears_sc report)

let tests =
  [
    Alcotest.test_case "store buffering" `Quick test_parse_store_buffering;
    Alcotest.test_case "all statement forms" `Quick test_parse_statements;
    Alcotest.test_case "conventional locations" `Quick
      test_conventional_locations;
    Alcotest.test_case "drf0 flag" `Quick test_drf0_flag_computed;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "sync ring is DRF0" `Quick test_sync_ring_is_drf0;
    Alcotest.test_case "processor limit" `Quick test_processor_limit;
    Alcotest.test_case "thread length limit" `Quick test_thread_length_limit;
    Alcotest.test_case "long racy file" `Quick test_long_racy_file;
    Alcotest.test_case "parsed tests run" `Quick
      test_parsed_test_runs_on_machines;
    Alcotest.test_case "fenced litmus file" `Quick test_fenced_file_is_sc;
  ]
