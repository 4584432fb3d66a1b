(* The consistency-model layer (see DESIGN.md): the Ordering backends
   behind the model field, the model-aware reference enumerator, and
   the differential compliance harness.

   The separator tests pin the zoo's observable behaviour at fixed
   seeds: each relaxed machine must show its model's signature
   relaxation on a racy litmus test and must NOT show the relaxations
   its model forbids — TSO reorders reads past pending writes but keeps
   write order; PSO also reorders writes; only RA lets an acquire read
   overtake a pending release.  All three must still appear SC on DRF0
   programs (Definition 2). *)

module M = Wo_machines.Machine
module P = Wo_machines.Presets
module S = Wo_machines.Spec
module SM = Wo_core.Sync_model
module L = Wo_litmus.Litmus
module R = Wo_litmus.Runner
module D = Wo_campaign.Difftest
module E = Wo_oracle.Enum_ref
module Rx = Wo_prog.Relaxed
module O = Wo_prog.Outcome

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run machine test = R.run ~runs:40 ~base_seed:1 machine test

let interesting (r : R.report) name =
  match List.assoc_opt name r.R.interesting_counts with
  | Some n -> n
  | None -> 0

(* --- separators: each model shows its relaxation and only its own ----------- *)

let test_tso_separator () =
  let r = run P.tso_wb L.figure1 in
  check "tso reorders reads past pending writes (figure1 both-killed)" true
    (interesting r "both-killed" > 0);
  let r = run P.tso_wb L.message_passing in
  check_int "tso keeps write order (no flag-without-data)" 0
    (interesting r "flag-without-data");
  let r = run P.tso_wb L.sb_acquire in
  check_int "tso drains on a synchronization read" 0
    (interesting r "both-killed")

let test_pso_separator () =
  let r = run P.pso_wb L.message_passing in
  check "pso reorders writes to different locations (flag-without-data)" true
    (interesting r "flag-without-data" > 0);
  let r = run P.pso_wb L.sb_acquire in
  check_int "pso drains on a synchronization read" 0
    (interesting r "both-killed")

let test_ra_separator () =
  let r = run P.ra_window L.sb_acquire in
  check "only ra lets an acquire overtake a pending release" true
    (interesting r "both-killed" > 0);
  let r = run P.tso_wb L.sb_acquire in
  check_int "tso forbids it" 0 (interesting r "both-killed");
  let r = run P.pso_wb L.sb_acquire in
  check_int "pso forbids it" 0 (interesting r "both-killed")

(* --- weak ordering: every model appears SC to DRF0 programs ----------------- *)

let test_models_appear_sc_on_drf0 () =
  List.iter
    (fun machine ->
      List.iter
        (fun (t : L.t) ->
          if t.L.drf0 then begin
            let r = run machine t in
            check
              (Printf.sprintf "%s appears SC on %s" machine.M.name t.L.name)
              true (R.appears_sc r);
            check_int
              (Printf.sprintf "%s: no Lemma-1 failures on %s" machine.M.name
                 t.L.name)
              0 r.R.lemma1_failures
          end)
        L.all)
    P.models

(* --- the reference explorer ------------------------------------------------- *)

let loop_free = List.filter (fun (t : L.t) -> not t.L.loops) L.all

let test_relaxed_sc_matches_enumerate () =
  List.iter
    (fun (t : L.t) ->
      let sc = E.outcomes t.L.program in
      let rx = Rx.outcomes SM.sc_hw t.L.program in
      check
        (Printf.sprintf "Relaxed(sc_hw) = Enumerate on %s" t.L.name)
        true (E.outcome_sets_equal sc rx))
    loop_free

let subset a b =
  List.for_all (fun o -> List.exists (fun o' -> O.compare o o' = 0) b) a

let test_relaxed_monotonic () =
  (* each weaker model's allowed set contains the stronger ones' *)
  List.iter
    (fun (t : L.t) ->
      let sets =
        List.map
          (fun hw -> (hw.SM.hname, Rx.outcomes hw t.L.program))
          [ SM.sc_hw; SM.tso_hw; SM.pso_hw; SM.ra_hw ]
      in
      let rec chain = function
        | (na, a) :: ((nb, b) :: _ as rest) ->
          check
            (Printf.sprintf "%s: %s allows everything %s does" t.L.name nb na)
            true (subset a b);
          chain rest
        | _ -> ()
      in
      chain sets)
    loop_free

(* Identity with the list-based enumerator the compiled explorer
   replaced ({!Relaxed_ref}): sorted-set equality, model by model. *)

(* The four named models plus a descriptor none of them uses: buffered
   writes without store-to-load forwarding, where a read waits for its
   own pending write to the location to drain. *)
let all_models =
  [
    SM.sc_hw;
    SM.tso_hw;
    SM.pso_hw;
    SM.ra_hw;
    { SM.pso_hw with SM.hname = "pso-no-forwarding"; forwarding = false };
  ]

let identical hw program =
  E.outcome_sets_equal (Relaxed_ref.outcomes hw program) (Rx.outcomes hw program)

let check_identical ?(models = all_models) name program =
  List.iter
    (fun hw ->
      check
        (Printf.sprintf "%s under %s: explorer = reference" name hw.SM.hname)
        true (identical hw program))
    models

let test_relaxed_identity_litmus () =
  List.iter
    (fun (t : L.t) ->
      check_identical t.L.name t.L.program;
      (* and with the Shasha-Snir fences that make it SC: a fence waits
         for its processor's buffer to drain *)
      match Wo_prog.Delay_set.insert_fences t.L.program with
      | fenced -> check_identical (t.L.name ^ "+fences") fenced
      | exception Wo_prog.Delay_set.Unsupported _ -> ())
    loop_free

let test_relaxed_identity_synth () =
  let corpus =
    List.map
      (fun (t : L.t) ->
        {
          Wo_synth.Synth.base_name = t.L.name;
          base_program = t.L.program;
          base_drf0 = t.L.drf0;
        })
      loop_free
  in
  let loop_free_families =
    List.filter_map
      (fun family ->
        match Wo_synth.Synth.batch ~corpus ~family ~base_seed:1 ~count:6 () with
        | Error e -> Alcotest.fail e
        | Ok cases ->
          let cases =
            List.filter
              (fun (c : Wo_synth.Synth.case) ->
                not (Wo_prog.Program.has_loops c.Wo_synth.Synth.program))
              cases
          in
          List.iter
            (fun (c : Wo_synth.Synth.case) ->
              check_identical c.Wo_synth.Synth.name c.Wo_synth.Synth.program)
            cases;
          if cases = [] then None else Some family)
      Wo_synth.Synth.families
  in
  check_int "every loop-free family sampled" 5 (List.length loop_free_families)

(* E19's difftest corpus: racy five-processor critical cycles, one per
   arrangement of {Rf, Rf, Fr, Fr, Ws} up to rotation (Ws first). *)
let racy_cycle_arrangements () =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.sort_uniq compare l
      |> List.concat_map (fun x ->
             let rec drop = function
               | [] -> []
               | y :: rest -> if y = x then rest else y :: drop rest
             in
             List.map (fun p -> x :: p) (perms (drop l)))
  in
  List.map
    (fun rest ->
      let kinds = Wo_synth.Cycle.Ws :: rest in
      let shape =
        {
          Wo_synth.Cycle.edges =
            List.map
              (fun conflict ->
                { Wo_synth.Cycle.conflict; sync_from = false; sync_to = false })
              kinds;
          padding = [ 0; 1; 2; 0; 1 ];
        }
      in
      Wo_synth.Cycle.program ~name:(Wo_synth.Cycle.slug shape) shape)
    (perms Wo_synth.Cycle.[ Rf; Rf; Fr; Fr ])

let test_relaxed_identity_cycles () =
  let programs = racy_cycle_arrangements () in
  check_int "six arrangements" 6 (List.length programs);
  List.iter
    (fun (p : Wo_prog.Program.t) ->
      check_identical ~models:[ SM.tso_hw; SM.pso_hw; SM.ra_hw ]
        p.Wo_prog.Program.name p)
    programs

let test_relaxed_bounds () =
  let raises f =
    match f () with _ -> false | exception Rx.Too_many_states _ -> true
  in
  check "max_states bounds the buffered search" true
    (raises (fun () ->
         Rx.outcomes ~max_states:3 SM.pso_hw L.figure1.L.program));
  (* past the compiler's 16-bit location index *)
  let wide =
    let module I = Wo_prog.Instr in
    Wo_prog.Program.make
      ~initial:(List.init 0x10000 (fun l -> (l, 0)))
      [ [ I.Write (0, I.Const 1) ] ]
  in
  List.iter
    (fun hw ->
      check
        (Printf.sprintf "uncompilable program under %s" hw.SM.hname)
        true
        (raises (fun () -> Rx.outcomes hw wide)))
    [ SM.sc_hw; SM.tso_hw ]

(* Random loop-free programs over every instruction kind: reads, writes,
   the four synchronization operations, fences, local computation and
   branches, on two or three processors sharing three locations. *)
let random_loop_free seed =
  let rng = Wo_sim.Rng.make seed in
  let module I = Wo_prog.Instr in
  let reg () = Wo_sim.Rng.int rng 3 and loc () = Wo_sim.Rng.int rng 3 in
  let expr () =
    match Wo_sim.Rng.int rng 3 with
    | 0 -> I.Const (1 + Wo_sim.Rng.int rng 3)
    | 1 -> I.Reg (reg ())
    | _ -> I.Add (I.Reg (reg ()), I.Const 1)
  in
  let rec instr depth =
    match Wo_sim.Rng.int rng (if depth > 0 then 10 else 9) with
    | 0 | 1 -> I.Read (reg (), loc ())
    | 2 | 3 -> I.Write (loc (), expr ())
    | 4 -> I.Sync_read (reg (), loc ())
    | 5 -> I.Sync_write (loc (), expr ())
    | 6 ->
      if Wo_sim.Rng.bool rng then I.Test_and_set (reg (), loc ())
      else I.Fetch_and_add (reg (), loc (), expr ())
    | 7 -> I.Fence
    | 8 -> I.Assign (reg (), expr ())
    | _ ->
      I.If
        ( I.Eq (I.Reg (reg ()), I.Const 0),
          [ instr (depth - 1) ],
          [ instr (depth - 1); instr (depth - 1) ] )
  in
  let procs = Wo_sim.Rng.int_in rng 2 3 in
  Wo_prog.Program.make
    ~name:(Printf.sprintf "random-%d" seed)
    (List.init procs (fun _ ->
         List.init (Wo_sim.Rng.int_in rng 1 4) (fun _ -> instr 1)))

let prop_relaxed_identity_random =
  QCheck.Test.make
    ~name:"Relaxed = list-based reference on random loop-free programs"
    ~count:150 QCheck.small_int (fun seed ->
      let program = random_loop_free seed in
      List.for_all (fun hw -> identical hw program) all_models)

(* --- the identity gate: the model layer does not perturb SC builds ---------- *)

let fingerprint (r : M.result) =
  Digest.string (Marshal.to_string r [ Marshal.Closures ])

let test_sc_presets_identical_through_model_layer () =
  (* every preset spec, rebuilt through its JSON form (which now always
     carries the model field), produces Marshal-identical results *)
  List.iter
    (fun (spec : S.t) ->
      let direct = S.build spec in
      let rebuilt =
        match S.of_string (S.to_string spec) with
        | Ok s -> S.build s
        | Error e -> Alcotest.failf "%s: re-parse failed: %s" spec.S.name e
      in
      List.iter
        (fun (t : L.t) ->
          for seed = 1 to 3 do
            check
              (Printf.sprintf "%s/%s/seed %d identical" spec.S.name t.L.name
                 seed)
              true
              (fingerprint (M.run direct ~seed t.L.program)
              = fingerprint (M.run rebuilt ~seed t.L.program))
          done)
        [ L.figure1; L.dekker_sync ])
    (P.specs @ P.model_specs)

(* --- the differential harness ------------------------------------------------ *)

let test_difftest_compliant () =
  let cases = List.map D.case_of_litmus L.all in
  let s = D.run ~cases ~runs:20 ~base_seed:1 ~witnesses:false () in
  check_int "no violating (case, machine) pairs" 0 (List.length s.D.violating);
  check_int "three machines" 3 s.D.machines;
  (* and the separator matrix is not trivially empty *)
  let matrix = D.matrix s in
  check "some racy case separates some machine" true
    (List.exists (fun (_, cols) -> List.exists (fun (_, n) -> n > 0) cols) matrix)

let test_difftest_six_proc_drf0_cycle () =
  (* Tree search gives up on six-processor DRF0 cycles; the stateful SC
     search settles them. *)
  let shape =
    {
      Wo_synth.Cycle.edges =
        List.map
          (fun conflict ->
            { Wo_synth.Cycle.conflict; sync_from = true; sync_to = true })
          Wo_synth.Cycle.[ Rf; Rf; Fr; Fr; Ws; Ws ];
      padding = [ 0; 1; 2; 0; 1; 2 ];
    }
  in
  let program = Wo_synth.Cycle.program ~name:"drf0-RfRfFrFrWsWs" shape in
  let case =
    {
      D.cname = "drf0-RfRfFrFrWsWs";
      program;
      drf0 = true;
      racy = false;
      loops = false;
    }
  in
  let s = D.run ~cases:[ case ] ~runs:4 ~base_seed:1 ~witnesses:false () in
  check_int "one report per machine" 3 (List.length s.D.reports);
  List.iter
    (fun (r : D.report) ->
      check (r.D.rmachine ^ " checks against the SC set") true
        (r.D.rcheck = D.Against_sc);
      check (r.D.rmachine ^ " has a non-empty SC set") true (r.D.allowed > 0))
    s.D.reports;
  check_int "no violations" 0 (List.length s.D.violating)

let tests =
  [
    Alcotest.test_case "tso separator" `Quick test_tso_separator;
    Alcotest.test_case "pso separator" `Quick test_pso_separator;
    Alcotest.test_case "ra separator" `Quick test_ra_separator;
    Alcotest.test_case "models appear SC on DRF0 litmus tests" `Slow
      test_models_appear_sc_on_drf0;
    Alcotest.test_case "Relaxed under sc_hw equals Enumerate" `Quick
      test_relaxed_sc_matches_enumerate;
    Alcotest.test_case "model outcome sets are monotone" `Quick
      test_relaxed_monotonic;
    Alcotest.test_case "Relaxed = reference on the loop-free corpus" `Quick
      test_relaxed_identity_litmus;
    Alcotest.test_case "Relaxed = reference on every loop-free family" `Slow
      test_relaxed_identity_synth;
    Alcotest.test_case "Relaxed = reference on racy 5-processor cycles" `Slow
      test_relaxed_identity_cycles;
    QCheck_alcotest.to_alcotest prop_relaxed_identity_random;
    Alcotest.test_case "Relaxed bounds: max_states, uncompilable programs"
      `Quick test_relaxed_bounds;
    Alcotest.test_case "SC presets identical through the model layer" `Slow
      test_sc_presets_identical_through_model_layer;
    Alcotest.test_case "difftest finds no violations on the corpus" `Slow
      test_difftest_compliant;
    Alcotest.test_case "difftest settles six-processor DRF0 cycles" `Quick
      test_difftest_six_proc_drf0_cycle;
  ]
