type report = {
  test : Litmus.t;
  machine : string;
  runs : int;
  sc_outcomes : Wo_prog.Outcome.t list;
  histogram : (Wo_prog.Outcome.t * int) list;
  violations : (Wo_prog.Outcome.t * int) list;
  lemma1_failures : int;
  interesting_counts : (string * int) list;
  total_cycles : int;
  sc_coverage : int;
}

module Outcome_map = Map.Make (Wo_prog.Outcome)

let histogram_of outcomes =
  let counts =
    List.fold_left
      (fun m o ->
        Outcome_map.update o
          (function None -> Some 1 | Some n -> Some (n + 1))
          m)
      Outcome_map.empty outcomes
  in
  (* Most frequent first; ties in outcome order ([bindings] is sorted and
     the sort is stable), so the histogram is fully deterministic. *)
  Outcome_map.bindings counts |> List.sort (fun (_, a) (_, b) -> compare b a)

let run ?(runs = 100) ?(base_seed = 1) ?check_lemma1 ?sc_outcomes ?session
    ?compiled machine (test : Litmus.t) =
  let check_lemma1 =
    match check_lemma1 with Some b -> b | None -> test.Litmus.drf0
  in
  let sc_outcomes =
    match sc_outcomes with
    | Some outcomes -> outcomes
    | None ->
      if test.Litmus.loops then []
      else
        fst (Wo_prog.Enumerate.outcomes_stateful ~domains:1 test.Litmus.program)
  in
  (* One session for the whole seed batch: the machine is built once and
     reset between seeds, and the program is compiled once. *)
  let session =
    match session with
    | Some s -> s
    | None ->
      Wo_machines.Machine.new_session machine Wo_machines.Machine.Compiled
  in
  let init = Wo_prog.Program.initial_value test.Litmus.program in
  let observed = ref [] in
  let lemma1_failures = ref 0 in
  let total_cycles = ref 0 in
  (* The previous result and its Lemma-1 verdict.  A replayed run hands
     back the same physical result; results are immutable and the check
     is a pure function of the result and [init], so the verdict is
     reused, not recomputed. *)
  let last = ref None in
  for seed = base_seed to base_seed + runs - 1 do
    let r =
      Wo_machines.Machine.session_run session ~seed ?compiled
        test.Litmus.program
    in
    observed := r.Wo_machines.Machine.outcome :: !observed;
    total_cycles := !total_cycles + r.Wo_machines.Machine.cycles;
    if check_lemma1 then begin
      let ok =
        match !last with
        | Some (prev, ok) when prev == r -> ok
        | _ ->
          let ok = Result.is_ok (Wo_machines.Machine.check_lemma1 ~init r) in
          last := Some (r, ok);
          ok
      in
      if not ok then incr lemma1_failures
    end
  done;
  let observed = List.rev !observed in
  let histogram = histogram_of observed in
  let violations =
    if test.Litmus.loops then []
    else
      List.filter
        (fun (o, _) ->
          not
            (List.exists
               (fun sc -> Wo_prog.Outcome.compare sc o = 0)
               sc_outcomes))
        histogram
  in
  let interesting_counts =
    List.map
      (fun (name, pred) ->
        (name, List.length (List.filter pred observed)))
      test.Litmus.interesting
  in
  let sc_coverage =
    let verdict =
      Wo_core.Weak_ordering.appears_sc ~compare:Wo_prog.Outcome.compare
        ~sc_outcomes ~observed
    in
    Wo_core.Weak_ordering.coverage ~compare:Wo_prog.Outcome.compare
      ~sc_outcomes verdict
  in
  {
    test;
    machine = machine.Wo_machines.Machine.name;
    runs;
    sc_outcomes;
    histogram;
    violations;
    lemma1_failures = !lemma1_failures;
    interesting_counts;
    total_cycles = !total_cycles;
    sc_coverage;
  }

let appears_sc r = r.violations = [] && r.lemma1_failures = 0

let first_seed session ~compiled ~base_seed ~runs program bad =
  let rec search seed =
    if seed >= base_seed + runs then None
    else
      let r = Wo_machines.Machine.session_run session ~seed ?compiled program in
      if bad r then Some (seed, r) else search (seed + 1)
  in
  search base_seed

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s on %s: %d runs" r.test.Litmus.name r.machine
    r.runs;
  if not r.test.Litmus.loops then
    Format.fprintf ppf
      ", %d SC outcomes (%d covered), %d observed, %d outside SC"
      (List.length r.sc_outcomes) r.sc_coverage (List.length r.histogram)
      (List.length r.violations);
  if r.lemma1_failures > 0 then
    Format.fprintf ppf ", %d Lemma-1 failures" r.lemma1_failures;
  List.iter
    (fun (name, n) -> Format.fprintf ppf "@,  %-24s %d/%d" name n r.runs)
    r.interesting_counts;
  Format.fprintf ppf "@]"
