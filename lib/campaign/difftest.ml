(* Differential compliance harness over the consistency-model zoo.

   Every case runs on every machine under test; what counts as a
   violation depends on what is knowable about the case:

   - DRF0, loop-free: the allowed set is the SC set (Definition 2), so
     any outcome outside it is a violation, and so is a Lemma-1 trace
     failure.  SC sets come from the stateful search on one domain
     ({!Wo_prog.Enumerate.outcomes_stateful}), the call the campaign
     makes, which finishes on six-processor cycles where tree search
     gives up.
   - DRF0 with loops: the SC set cannot be enumerated; the Lemma-1
     oracle alone decides.
   - Known-racy, loop-free: the machine is allowed to leave the SC set,
     but only within its own model — the allowed set is the axiomatic
     {!Wo_prog.Relaxed.outcomes} for the spec's hardware descriptor, so
     a TSO machine exhibiting a PSO-only outcome is a violation.
   - Everything else (unknown classification, racy with loops): no
     oracle; observed and report only.

   The first violating (case, machine) pair is re-run seed by seed to
   attach a witness: the seed, the outcome and the full event trace. *)

module S = Wo_machines.Spec
module M = Wo_machines.Machine
module L = Wo_litmus.Litmus
module R = Wo_litmus.Runner
module SM = Wo_core.Sync_model

type case = {
  cname : string;
  program : Wo_prog.Program.t;
  drf0 : bool;
  racy : bool;
  loops : bool;
}

type check = Against_sc | Against_model | Lemma1_only | Report_only

(* ["sc-set"], ["model-set"], ["lemma1"], ["report"]. *)
let check_name = function
  | Against_sc -> "sc-set"
  | Against_model -> "model-set"
  | Lemma1_only -> "lemma1"
  | Report_only -> "report"

type witness = {
  wseed : int;
  woutcome : Wo_prog.Outcome.t;
  wtrace : string;
}

type report = {
  rcase : case;
  rmachine : string;
  rmodel : string;
  rruns : int;
  rcheck : check;
  allowed : int;  (** size of the reference set; 0 under lemma1/report *)
  distinct : int;
  beyond_sc : int;
      (** runs whose outcome lies outside the SC set (loop-free cases);
          the separator signal, not by itself a violation *)
  violations : (Wo_prog.Outcome.t * int) list;
  lemma1_failures : int;
  witness : witness option;
}

let compliant r = r.violations = [] && r.lemma1_failures = 0

type summary = {
  reports : report list;
  cases : int;
  machines : int;
  violating : report list;
}

let case_of_synth (c : Wo_synth.Synth.case) =
  {
    cname = c.Wo_synth.Synth.name;
    program = c.Wo_synth.Synth.program;
    drf0 = c.Wo_synth.Synth.classification = Wo_synth.Synth.Drf0_by_construction;
    racy = c.Wo_synth.Synth.classification = Wo_synth.Synth.Racy_by_construction;
    loops = Wo_prog.Program.has_loops c.Wo_synth.Synth.program;
  }

let case_of_litmus t = case_of_synth (Campaign.case_of_litmus t)

let default_cases ?(family = "cycle-racy") ?(count = 8) () =
  let litmus = List.map case_of_litmus L.all in
  let synth =
    match Wo_synth.Synth.batch ~family ~base_seed:1 ~count () with
    | Ok cases -> List.map case_of_synth cases
    | Error e -> invalid_arg (Printf.sprintf "Difftest.default_cases: %s" e)
  in
  litmus @ synth

let in_set set o = List.exists (fun a -> Wo_prog.Outcome.compare a o = 0) set

type machine = {
  mspec : S.t;
  mbuilt : M.t;
  session : M.session;
  hw : SM.hardware;
}

(* One (case, machine) check.  [sc_set] is the case's SC set ([] for
   loopy cases); [model_set] memoizes its axiomatic set per model. *)
let check_case ~runs ~base_seed ~witnesses ~sc_set ~model_set (c : case) m =
  let check =
    if c.drf0 then if c.loops then Lemma1_only else Against_sc
    else if c.racy && not c.loops then Against_model
    else Report_only
  in
  (* the litmus-style sweep: histogram, SC violations, Lemma 1 *)
  let test =
    {
      L.name = c.cname;
      description = "";
      program = c.program;
      drf0 = c.drf0;
      loops = c.loops;
      interesting = [];
    }
  in
  let rep =
    R.run ~runs ~base_seed ~check_lemma1:c.drf0 ~sc_outcomes:sc_set
      ~session:m.session m.mbuilt test
  in
  let beyond_sc =
    List.fold_left (fun n (_, k) -> n + k) 0 rep.R.violations
  in
  let check, allowed_set =
    match check with
    | Against_model -> (
      match model_set m.hw with
      | Some set -> (Against_model, Some set)
      | None -> (Report_only, None))
    | Against_sc -> (Against_sc, Some sc_set)
    | (Lemma1_only | Report_only) as k -> (k, None)
  in
  let violations =
    match (check, allowed_set) with
    | (Against_sc | Against_model), Some set ->
      List.filter (fun (o, _) -> not (in_set set o)) rep.R.histogram
    | _ -> []
  in
  let witness =
    match (witnesses, violations) with
    | true, (bad, _) :: _ ->
      R.first_seed m.session ~compiled:None ~base_seed ~runs c.program
        (fun r -> Wo_prog.Outcome.compare r.M.outcome bad = 0)
      |> Option.map (fun (seed, (r : M.result)) ->
             {
               wseed = seed;
               woutcome = bad;
               wtrace = Format.asprintf "%a" Wo_sim.Trace.pp r.M.trace;
             })
    | _ -> None
  in
  {
    rcase = c;
    rmachine = m.mspec.S.name;
    rmodel = S.model_to_string m.mspec.S.model;
    rruns = runs;
    rcheck = check;
    allowed = (match allowed_set with Some s -> List.length s | None -> 0);
    distinct = List.length rep.R.histogram;
    beyond_sc;
    violations;
    lemma1_failures = rep.R.lemma1_failures;
    witness;
  }

(* Reports come out machine by machine, but the walk goes case by case:
   a case's reference sets (the expensive part, shared by every machine
   of a model) are dropped as soon as its machines are checked, so
   memory does not grow with the corpus.  Machine sessions reset in
   place between runs, so the order of runs changes no result. *)
let run ?(specs = Wo_machines.Presets.model_specs) ?(runs = 40) ?(base_seed = 1)
    ?max_states ?(engine = M.Compiled) ?(witnesses = true) ?cases () : summary
    =
  let cases =
    match cases with Some cs -> cs | None -> default_cases ()
  in
  let machines =
    List.map
      (fun (spec : S.t) ->
        let mbuilt = S.build spec in
        {
          mspec = spec;
          mbuilt;
          session = M.new_session mbuilt engine;
          hw = S.model_hardware spec.S.model;
        })
      specs
  in
  let by_case =
    List.map
      (fun (c : case) ->
        let sc_set =
          if c.loops then []
          else fst (Wo_prog.Enumerate.outcomes_stateful ~domains:1 c.program)
        in
        let model_sets = Hashtbl.create 4 in
        let model_set (hw : SM.hardware) =
          match Hashtbl.find_opt model_sets hw.SM.hname with
          | Some v -> v
          | None ->
            let v =
              match Wo_prog.Relaxed.outcomes ?max_states hw c.program with
              | set -> Some set
              | exception Wo_prog.Relaxed.Too_many_states _ -> None
            in
            Hashtbl.replace model_sets hw.SM.hname v;
            v
        in
        List.map
          (check_case ~runs ~base_seed ~witnesses ~sc_set ~model_set c)
          machines)
      cases
  in
  let rec by_machine = function
    | [] | [] :: _ -> []
    | rows -> List.map List.hd rows :: by_machine (List.map List.tl rows)
  in
  let reports = List.concat (by_machine by_case) in
  {
    reports;
    cases = List.length cases;
    machines = List.length specs;
    violating = List.filter (fun r -> not (compliant r)) reports;
  }

(* --- the separator matrix --------------------------------------------------- *)

(* For each racy loop-free case, how many runs each machine spent outside
   the SC set: zero rows show what a model forbids, non-zero rows what it
   exhibits — together the pairwise separation of the zoo. *)
let matrix (s : summary) =
  let case_names =
    List.filter_map
      (fun (c : case) -> if c.racy && not c.loops then Some c.cname else None)
      (List.sort_uniq compare (List.map (fun r -> r.rcase) s.reports))
  in
  List.map
    (fun name ->
      ( name,
        List.filter_map
          (fun r ->
            if r.rcase.cname = name then Some (r.rmachine, r.beyond_sc)
            else None)
          s.reports ))
    (List.sort_uniq compare case_names)

(* --- rendering --------------------------------------------------------------- *)

module J = Wo_obs.Json

let report_to_json r =
  J.Obj
    [
      ("case", J.String r.rcase.cname);
      ("machine", J.String r.rmachine);
      ("model", J.String r.rmodel);
      ("check", J.String (check_name r.rcheck));
      ("runs", J.Int r.rruns);
      ("allowed", J.Int r.allowed);
      ("distinct", J.Int r.distinct);
      ("beyond_sc", J.Int r.beyond_sc);
      ( "violations",
        J.List
          (List.map
             (fun (o, n) ->
               J.Obj
                 [
                   ("outcome", J.String (Format.asprintf "%a" Wo_prog.Outcome.pp o));
                   ("count", J.Int n);
                 ])
             r.violations) );
      ("lemma1_failures", J.Int r.lemma1_failures);
      ("compliant", J.Bool (compliant r));
      ( "witness",
        match r.witness with
        | None -> J.Null
        | Some w ->
          J.Obj
            [
              ("seed", J.Int w.wseed);
              ( "outcome",
                J.String (Format.asprintf "%a" Wo_prog.Outcome.pp w.woutcome) );
              ("trace", J.String w.wtrace);
            ] );
    ]

let summary_to_json s =
  J.Obj
    [
      ("cases", J.Int s.cases);
      ("machines", J.Int s.machines);
      ("compliant", J.Bool (s.violating = []));
      ("reports", J.List (List.map report_to_json s.reports));
      ( "matrix",
        J.Obj
          (List.map
             (fun (case, row) ->
               (case, J.Obj (List.map (fun (m, n) -> (m, J.Int n)) row)))
             (matrix s)) );
    ]

let pp_summary ppf (s : summary) =
  Format.fprintf ppf "@[<v>difftest: %d cases x %d machines, %d checks@,"
    s.cases s.machines (List.length s.reports);
  let groups = [ Against_sc; Lemma1_only; Against_model; Report_only ] in
  List.iter
    (fun g ->
      let of_g = List.filter (fun r -> r.rcheck = g) s.reports in
      if of_g <> [] then
        Format.fprintf ppf "  %-9s %3d checks, %d violating@," (check_name g)
          (List.length of_g)
          (List.length (List.filter (fun r -> not (compliant r)) of_g)))
    groups;
  Format.fprintf ppf "@,separator matrix (runs outside the SC set):@,";
  List.iter
    (fun (case, row) ->
      Format.fprintf ppf "  %-24s" case;
      List.iter (fun (m, n) -> Format.fprintf ppf " %s=%d" m n) row;
      Format.fprintf ppf "@,")
    (matrix s);
  (match s.violating with
  | [] -> Format.fprintf ppf "@,verdict: compliant (no violations)"
  | vs ->
    Format.fprintf ppf "@,verdict: %d VIOLATIONS@," (List.length vs);
    List.iter
      (fun r ->
        Format.fprintf ppf "  %s on %s [%s]:" r.rcase.cname r.rmachine
          (check_name r.rcheck);
        List.iter
          (fun (o, n) ->
            Format.fprintf ppf " %dx %a" n Wo_prog.Outcome.pp o)
          r.violations;
        if r.lemma1_failures > 0 then
          Format.fprintf ppf " %d Lemma-1 failures" r.lemma1_failures;
        (match r.witness with
        | Some w -> Format.fprintf ppf "@,    witness seed %d" w.wseed
        | None -> ());
        Format.fprintf ppf "@,")
      vs);
  Format.fprintf ppf "@]"
