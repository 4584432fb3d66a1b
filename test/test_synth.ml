(* The synthesis layer: seed determinism down to the canonical byte
   encoding, up-front classification cross-checked against the
   exhaustive DRF0 checker, and the cycle families' forbidden outcomes
   confirmed to lie outside the enumerated SC set. *)

module S = Wo_synth.Synth
module L = Wo_litmus.Litmus

let check = Alcotest.(check bool)

let corpus =
  List.filter_map
    (fun (t : L.t) ->
      if t.L.loops then None
      else
        Some
          {
            S.base_name = t.L.name;
            S.base_program = t.L.program;
            S.base_drf0 = t.L.drf0;
          })
    L.all

let gen family seed =
  match S.generate ~corpus ~family ~seed () with
  | Ok c -> c
  | Error e -> Alcotest.failf "generate %s/%d: %s" family seed e

let encoding p =
  (Wo_workload.Sweep.program_key p).Wo_workload.Sweep.pk_payload

(* --- determinism ------------------------------------------------------------ *)

let prop_deterministic =
  QCheck.Test.make
    ~name:
      "same (family, seed) -> same case name and byte-identical canonical \
       encoding"
    ~count:60
    QCheck.(pair (int_bound (List.length S.families - 1)) small_int)
    (fun (fi, seed) ->
      let family = List.nth S.families fi in
      let a = gen family seed and b = gen family seed in
      a.S.name = b.S.name
      && a.S.classification = b.S.classification
      && String.equal (encoding a.S.program) (encoding b.S.program))

let test_batch_matches_generate () =
  List.iter
    (fun family ->
      match S.batch ~corpus ~family ~base_seed:3 ~count:5 () with
      | Error e -> Alcotest.failf "batch %s: %s" family e
      | Ok cases ->
        Alcotest.(check int) "batch count" 5 (List.length cases);
        List.iteri
          (fun i c ->
            let c' = gen family (3 + i) in
            check "batch = generate" true
              (c.S.name = c'.S.name
              && String.equal (encoding c.S.program) (encoding c'.S.program)))
          cases)
    S.families

(* --- classification cross-checks -------------------------------------------- *)

let drf0_verdict p =
  match Wo_prog.Enumerate.check_drf0_stateful ~domains:1 p with
  | (Ok (), _) -> true
  | (Error _, _) -> false

let test_drf0_by_construction () =
  (* Every drf0-classified cycle case must pass the exhaustive checker. *)
  for seed = 1 to 10 do
    let c = gen "cycle-drf0" seed in
    check
      (Printf.sprintf "%s passes check_drf0_stateful" c.S.name)
      true
      (drf0_verdict c.S.program)
  done

let test_racy_by_construction () =
  for seed = 1 to 10 do
    let c = gen "cycle-racy" seed in
    check
      (Printf.sprintf "%s fails check_drf0_stateful" c.S.name)
      false
      (drf0_verdict c.S.program)
  done

let test_mutant_classification_sound () =
  (* The mutation engine's classification transfer is conservative:
     whenever it does claim a class, the exhaustive checker agrees. *)
  let checked = ref 0 in
  for seed = 1 to 40 do
    let c = gen "mutate" seed in
    if not (Wo_prog.Program.has_loops c.S.program) then
      match c.S.classification with
      | S.Drf0_by_construction ->
        incr checked;
        check
          (Printf.sprintf "%s (drf0 mutant)" c.S.name)
          true (drf0_verdict c.S.program)
      | S.Racy_by_construction ->
        incr checked;
        check
          (Printf.sprintf "%s (racy mutant)" c.S.name)
          false (drf0_verdict c.S.program)
      | S.Unknown -> ()
  done;
  check "some classified mutants were cross-checked" true (!checked > 0)

(* --- the forbidden outcome -------------------------------------------------- *)

let test_forbidden_outside_sc () =
  (* The whole point of a critical cycle: its witnessing outcome must
     not be producible by any SC execution. *)
  List.iter
    (fun family ->
      for seed = 1 to 8 do
        let c = gen family seed in
        match c.S.forbidden with
        | None -> Alcotest.failf "%s: cycle case without forbidden" c.S.name
        | Some forbidden ->
          let sc, _ =
            Wo_prog.Enumerate.outcomes_stateful ~domains:1 c.S.program
          in
          check
            (Printf.sprintf "%s: forbidden outcome outside SC set" c.S.name)
            false
            (List.exists forbidden sc)
      done)
    [ "cycle-drf0"; "cycle-racy"; "cycle-mixed" ]

(* --- the legacy families ------------------------------------------------------ *)

let test_legacy_families_pinned () =
  (* The racy and lock-disciplined families must keep producing the exact
     historical programs: every (seed, params) pair ever cited in a bench
     or test names the program it always did.  The expected values are
     digests of those programs' canonical keys. *)
  let digest p = Digest.to_hex (Digest.string (encoding p)) in
  Alcotest.(check string)
    "racy seed 11" "397cbd50b57191a0ed2824c746878df2"
    (digest (S.racy ~seed:11 ~procs:3 ~ops_per_proc:4 ()));
  Alcotest.(check string)
    "lock-disciplined seed 7" "bdc27f3e89b320f1506ee45633efcbd0"
    (digest (S.lock_disciplined ~seed:7 ()))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_deterministic;
    Alcotest.test_case "batch agrees with generate" `Quick
      test_batch_matches_generate;
    Alcotest.test_case "cycle-drf0 cases pass the exhaustive DRF0 checker"
      `Quick test_drf0_by_construction;
    Alcotest.test_case "cycle-racy cases fail the exhaustive DRF0 checker"
      `Quick test_racy_by_construction;
    Alcotest.test_case "classified mutants agree with the exhaustive checker"
      `Slow test_mutant_classification_sound;
    Alcotest.test_case "forbidden outcomes lie outside the SC set" `Slow
      test_forbidden_outside_sc;
    Alcotest.test_case "legacy families preserve historical programs"
      `Quick test_legacy_families_pinned;
  ]
