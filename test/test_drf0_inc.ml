(* Tests for the path-incremental DRF0/DRF1 checker (Wo_core.Drf0_inc).

   The closure-based Drf0.races is the oracle throughout: the
   incremental checker must agree on the verdict for every enumerated
   execution of random programs, and when it reports a race, that race
   must be one the closure also reports — with the new event being the
   earliest event that creates any race (that is what makes subtree
   pruning at the first racing edge sound and maximal). *)

module D = Wo_core.Drf0
module Inc = Wo_core.Drf0_inc
module En = Wo_oracle.Enum_ref
module Ex = Wo_core.Execution

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let race_ids (r : D.race) = (r.D.e1.Wo_core.Event.id, r.D.e2.Wo_core.Event.id)

let random_program pseed =
  Wo_synth.Synth.racy ~seed:pseed ~procs:2 ~ops_per_proc:3 ~locs:2 ()

(* --- push/pop undo ---------------------------------------------------------- *)

let test_push_pop_undo () =
  let program = Wo_litmus.Litmus.figure1.Wo_litmus.Litmus.program in
  let execution =
    match En.executions program () with
    | Seq.Cons (e, _) -> e
    | Seq.Nil -> Alcotest.fail "no execution"
  in
  let events = Ex.events execution in
  let nprocs = Wo_prog.Program.num_procs program in
  let t = Inc.create ~nprocs () in
  let push_all () = List.map (fun e -> Inc.push t e) events in
  let first = push_all () in
  check_int "depth after pushes" (List.length events) (Inc.depth t);
  List.iter (fun _ -> Inc.pop t) events;
  check_int "depth after pops" 0 (Inc.depth t);
  (* the undo must be exact: replaying yields identical race reports *)
  let second = push_all () in
  check "replay after full undo gives identical results" true (first = second);
  Inc.reset t;
  check_int "reset empties" 0 (Inc.depth t);
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Drf0_inc.pop: empty trail") (fun () -> Inc.pop t)

let test_interleaved_push_pop () =
  (* Branch like the enumerator does: push a prefix, explore one suffix,
     pop back, explore another — the second suffix must behave as if the
     first never happened. *)
  let program = Wo_litmus.Litmus.dekker_sync.Wo_litmus.Litmus.program in
  let execution =
    match En.executions program () with
    | Seq.Cons (e, _) -> e
    | Seq.Nil -> Alcotest.fail "no execution"
  in
  let events = Array.of_list (Ex.events execution) in
  let n = Array.length events in
  let nprocs = Wo_prog.Program.num_procs program in
  let t = Inc.create ~nprocs () in
  let half = n / 2 in
  for i = 0 to half - 1 do
    ignore (Inc.push t events.(i))
  done;
  (* suffix one: the rest in order *)
  let suffix () =
    let rs = ref [] in
    for i = half to n - 1 do
      rs := Inc.push t events.(i) :: !rs
    done;
    for _ = half to n - 1 do
      Inc.pop t
    done;
    List.rev !rs
  in
  let a = suffix () in
  let b = suffix () in
  check "same suffix twice after backtracking" true (a = b);
  check_int "prefix depth preserved" half (Inc.depth t)

(* --- in-place reads agree with the summary ----------------------------------- *)

(* Every accessor against [summary]: each processor's clock, and each
   location the pool touches plus one no event touches (absent). *)
let reads_agree t ~nprocs locs =
  let sm = Inc.summary t in
  let clocks_ok =
    List.for_all
      (fun p ->
        List.for_all
          (fun q -> Inc.clock t p q = sm.Inc.sm_clocks.(p).(q))
          (List.init nprocs Fun.id))
      (List.init nprocs Fun.id)
  in
  clocks_ok
  && List.for_all
       (fun loc ->
         let v = Inc.loc_view t loc in
         let lw, lr, sy =
           match
             List.find_opt (fun l -> l.Inc.ls_loc = loc) sm.Inc.sm_locs
           with
           | Some l ->
             (l.Inc.ls_last_write, l.Inc.ls_last_read, l.Inc.ls_sync)
           | None ->
             (Array.make nprocs (-1), Array.make nprocs (-1), Array.make nprocs 0)
         in
         List.for_all
           (fun q ->
             Inc.last_write v q = lw.(q)
             && Inc.last_read v q = lr.(q)
             && Inc.sync v q = sy.(q))
           (List.init nprocs Fun.id))
       (-7 :: locs)

(* Random push/pop walks: each op either pops (when something is
   pushed) or pushes the next event of one of the program's executions,
   so paths mix prefixes of different executions like a DFS does. *)
let prop_reads_match_summary =
  QCheck.Test.make
    ~name:"clock/loc_view reads equal summary after random push/pop"
    ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 40) small_nat))
    (fun (pseed, ops) ->
      let program =
        Wo_synth.Synth.lock_disciplined ~seed:pseed ~procs:3
          ~sections_per_proc:1 ~ops_per_section:2 ()
      in
      let racy = random_program pseed in
      let pools =
        List.concat_map
          (fun p ->
            List.of_seq
              (Seq.take 3
                 (Seq.map
                    (fun e -> Array.of_list (Ex.events e))
                    (En.executions ~max_events:40 p))))
          [ racy; program ]
        |> Array.of_list
      in
      let nprocs =
        max (Wo_prog.Program.num_procs program)
          (Wo_prog.Program.num_procs racy)
      in
      let locs =
        Array.to_list pools
        |> List.concat_map (fun a ->
               Array.to_list (Array.map (fun e -> e.Wo_core.Event.loc) a))
        |> List.sort_uniq Int.compare
      in
      let t = Inc.create ~nprocs () in
      Array.length pools = 0
      || List.for_all
           (fun op ->
             let d = Inc.depth t in
             let pool = pools.(op mod Array.length pools) in
             if (op mod 3 = 0 && d > 0) || d >= Array.length pool then Inc.pop t
             else ignore (Inc.push t pool.(d));
             reads_agree t ~nprocs locs)
           ops)

(* --- agreement with the closure oracle, per execution ----------------------- *)

let races_agree ?model ?mode execution =
  let closure = D.races ?model execution in
  match Inc.check_execution ?mode execution with
  | None -> closure = []
  | Some r ->
    let e1_id, e2_id = race_ids r in
    let closure_ids = List.map race_ids closure in
    (* the reported race is one the oracle knows... *)
    List.mem (e1_id, e2_id) closure_ids
    (* ...its new event is the first event to create any race
       (ids are assigned in execution order)... *)
    && List.for_all (fun (_, e2) -> e2_id <= e2) closure_ids
    (* ...and e1 is, among each processor's latest racing partner of
       that event, the one with the smallest id (the checker retains
       only the latest access per location and processor) *)
    &&
    let partners =
      List.filter_map
        (fun (cr : D.race) ->
          if cr.D.e2.Wo_core.Event.id = e2_id then Some cr.D.e1 else None)
        closure
    in
    let latest_per_proc =
      List.fold_left
        (fun acc (e : Wo_core.Event.t) ->
          match List.assoc_opt e.Wo_core.Event.proc acc with
          | Some id when id >= e.Wo_core.Event.id -> acc
          | _ ->
            (e.Wo_core.Event.proc, e.Wo_core.Event.id)
            :: List.remove_assoc e.Wo_core.Event.proc acc)
        [] partners
    in
    e1_id = List.fold_left (fun m (_, id) -> min m id) max_int latest_per_proc

let prop_first_race_matches_closure =
  QCheck.Test.make
    ~name:"incremental first race agrees with the closure oracle" ~count:40
    QCheck.small_int (fun pseed ->
      Seq.for_all (races_agree ?model:None ?mode:None)
        (En.executions (random_program pseed)))

let prop_first_race_matches_closure_drf1 =
  QCheck.Test.make
    ~name:"incremental DRF1 mode agrees with the drf1 closure oracle"
    ~count:40 QCheck.small_int (fun pseed ->
      Seq.for_all
        (races_agree ~model:Wo_core.Sync_model.drf1 ~mode:Inc.Mode_drf1)
        (En.executions (random_program pseed)))

(* --- agreement at the checker level ----------------------------------------- *)

let verdict = function Ok () -> true | Error _ -> false

let prop_check_drf0_matches_closure_checker =
  (* The user-facing property from the issue: the fast path and the
     closure path return the same verdict under both strategies, and on
     racy programs their reports expose the same first racing pair. *)
  QCheck.Test.make
    ~name:"check_drf0 incremental verdict equals closure verdict (Naive/Por)"
    ~count:30 QCheck.small_int (fun pseed ->
      let program = random_program pseed in
      List.for_all
        (fun strategy ->
          let inc = En.check_drf0 ~strategy program in
          let clo = En.check_drf0_closure ~strategy program in
          verdict inc = verdict clo)
        [ En.Naive; En.Por ])

let prop_check_drf0_matches_closure_checker_drf1 =
  QCheck.Test.make
    ~name:"check_drf0 incremental verdict equals closure verdict under drf1"
    ~count:30 QCheck.small_int (fun pseed ->
      let program = random_program pseed in
      let model = Wo_core.Sync_model.drf1 in
      List.for_all
        (fun strategy ->
          verdict (En.check_drf0 ~strategy ~model program)
          = verdict (En.check_drf0_closure ~strategy ~model program))
        [ En.Naive; En.Por ])

let test_litmus_verdicts_match () =
  (* Deterministic spot checks on the named litmus programs that have a
     bounded execution set. *)
  List.iter
    (fun (t : Wo_litmus.Litmus.t) ->
      if not t.Wo_litmus.Litmus.loops then begin
        let p = t.Wo_litmus.Litmus.program in
        check
          (Printf.sprintf "%s verdict" t.Wo_litmus.Litmus.name)
          (verdict (En.check_drf0_closure p))
          (verdict (En.check_drf0 p));
        check
          (Printf.sprintf "%s drf0 flag" t.Wo_litmus.Litmus.name)
          t.Wo_litmus.Litmus.drf0
          (verdict (En.check_drf0 p))
      end)
    Wo_litmus.Litmus.all

let tests =
  [
    Alcotest.test_case "push/pop undo" `Quick test_push_pop_undo;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved_push_pop;
    Alcotest.test_case "litmus verdicts match closure" `Quick
      test_litmus_verdicts_match;
    QCheck_alcotest.to_alcotest prop_reads_match_summary;
    QCheck_alcotest.to_alcotest prop_first_race_matches_closure;
    QCheck_alcotest.to_alcotest prop_first_race_matches_closure_drf1;
    QCheck_alcotest.to_alcotest prop_check_drf0_matches_closure_checker;
    QCheck_alcotest.to_alcotest prop_check_drf0_matches_closure_checker_drf1;
  ]
