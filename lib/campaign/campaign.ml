module M = Wo_machines.Machine
module L = Wo_litmus.Litmus
module J = Wo_obs.Json
module Sweep = Wo_workload.Sweep

type config = {
  runs : int;
  base_seed : int;
  domains : int option;
  shard : int;
  max_shards : int option;
  store_path : string;
  auto_compact : float option;
}

let default_config ~store_path =
  { runs = 20; base_seed = 1; domains = None; shard = 64; max_shards = None;
    store_path; auto_compact = Some 0.5 }

type verdict = {
  v_ok : bool;
  v_expected_sc : bool;
  v_appears_sc : bool;
  v_violations : string list;
  v_lemma1 : int;
  v_error : string option;
  v_witness : string option;
}

let verdict_json v =
  let opt = function None -> J.Null | Some s -> J.String s in
  J.Obj
    [
         ("ok", J.Bool v.v_ok);
         ("expected", J.Bool v.v_expected_sc);
         ("sc", J.Bool v.v_appears_sc);
         ("violations", J.List (List.map (fun s -> J.String s) v.v_violations));
         ("lemma1", J.Int v.v_lemma1);
      ("error", opt v.v_error);
      ("witness", opt v.v_witness);
    ]

let verdict_to_string v = J.to_string (verdict_json v)

(* What every kept promise's stored verdict starts with: [verdict_json]
   emits "ok" first.  A stored value with this prefix decodes to
   [v_ok = true] ([J.member] answers with the first binding) or fails
   to decode — never to a finding — so the findings pass skips it. *)
let ok_prefix = {|{"ok":true,|}

let verdict_of_string s =
  match J.of_string s with
  | Error e -> Error e
  | Ok j ->
    let bool name =
      Option.bind (J.member name j) J.to_bool_opt
    in
    let str name =
      match J.member name j with
      | Some J.Null | None -> Ok None
      | Some v -> (
        match J.to_string_opt v with
        | Some s -> Ok (Some s)
        | None -> Error (name ^ ": not a string"))
    in
    (match (bool "ok", bool "expected", bool "sc",
            Option.bind (J.member "lemma1" j) J.to_int_opt,
            Option.bind (J.member "violations" j) J.to_list_opt,
            str "error", str "witness") with
    | Some v_ok, Some v_expected_sc, Some v_appears_sc, Some v_lemma1,
      Some vs, Ok v_error, Ok v_witness ->
      let v_violations = List.filter_map J.to_string_opt vs in
      Ok
        { v_ok; v_expected_sc; v_appears_sc; v_violations; v_lemma1; v_error;
          v_witness }
    | _ -> Error "verdict: missing or mistyped field")

type finding = {
  f_case : string;
  f_family : string;
  f_class : string;
  f_machine : string;
  f_verdict : verdict;
}

type result = {
  r_total : int;
  r_executed : int;
  r_cache_hits : int;
  r_shards : int;
  r_stopped_early : bool;
  r_sc_sets : int;
  r_findings : finding list;
  r_store_records : int;
  r_compacted : Store.compact_stats option;
}

(* Length-prefixed concatenation: payloads are arbitrary bytes (compiled
   encodings contain anything), so separators cannot delimit them. *)
let cell_key ~program_payload ~spec_json ~runs ~base_seed =
  let b = Buffer.create (64 + String.length program_payload) in
  Buffer.add_string b "wocell1";
  List.iter
    (fun part ->
      Buffer.add_string b (string_of_int (String.length part));
      Buffer.add_char b ':';
      Buffer.add_string b part)
    [ program_payload; spec_json; string_of_int runs; string_of_int base_seed ];
  Buffer.contents b

(* The mutation corpus every campaign shares: each loop-free
   catalogued test.  Deterministic in the binary, so a resumed campaign
   regenerates the interrupted run's cases from the same command line. *)
let catalogue_corpus () =
  List.filter_map
    (fun (t : L.t) ->
      if t.L.loops then None
      else
        Some
          {
            Wo_synth.Synth.base_name = t.L.name;
            Wo_synth.Synth.base_program = t.L.program;
            Wo_synth.Synth.base_drf0 = t.L.drf0;
          })
    L.all

(* --- running one cell ------------------------------------------------------ *)

let outcome_string o = Format.asprintf "%a" Wo_prog.Outcome.pp o

(* The one bit of a machine's consistency flags a verdict reads: it
   promises SC outright, or for DRF0 programs by Definition 2. *)
let expected_sc (machine : M.t) (test : L.t) =
  machine.M.sequentially_consistent
  || (machine.M.weakly_ordered_drf0 && test.L.drf0)

let evaluate ?engine:(_ = M.Compiled) ?compiled ~runs ~base_seed
    ~sc_outcomes machine (test : L.t) =
  try
    (* The seed batch runs through the calling domain's reusable session
       (fabric and memory system built once per machine per domain, reset
       between seeds) — the verdict bytes are independent of the session
       reuse, which is what lets the store replay them forever. *)
    let session = Sweep.domain_session machine in
    let report =
      Wo_litmus.Runner.run ~runs ~base_seed ?sc_outcomes ~session ?compiled
        machine test
    in
    let expected_sc = expected_sc machine test in
    let appears = Wo_litmus.Runner.appears_sc report in
    let ok = (not expected_sc) || appears in
    (* A full trace of the first run whose outcome (or Lemma-1 check)
       breaks the promise — captured once, stored with the verdict, and
       replayed from the store forever after. *)
    let init = Wo_prog.Program.initial_value test.L.program in
    let outside_sc (r : M.result) =
      List.exists
        (fun (o, _) -> Wo_prog.Outcome.compare o r.M.outcome = 0)
        report.Wo_litmus.Runner.violations
    in
    let lemma1_broken (r : M.result) =
      (not (outside_sc r)) && test.L.drf0
      && Result.is_error (M.check_lemma1 ~init r)
    in
    let witness =
      if ok then None
      else
        Wo_litmus.Runner.first_seed session ~compiled ~base_seed ~runs
          test.L.program (fun r -> outside_sc r || lemma1_broken r)
        |> Option.map (fun (seed, (r : M.result)) ->
               Format.asprintf "seed %d, outcome %a%s@.%a" seed
                 Wo_prog.Outcome.pp r.M.outcome
                 (if lemma1_broken r then " (Lemma-1 violation)" else "")
                 Wo_sim.Trace.pp r.M.trace)
    in
    {
      v_ok = ok;
      v_expected_sc = expected_sc;
      v_appears_sc = appears;
      v_violations =
        List.map
          (fun (o, _) -> outcome_string o)
          report.Wo_litmus.Runner.violations;
      v_lemma1 = report.Wo_litmus.Runner.lemma1_failures;
      v_error = None;
      v_witness = witness;
    }
  with M.Machine_error msg ->
    {
      v_ok = false;
      v_expected_sc = true;
      v_appears_sc = false;
      v_violations = [];
      v_lemma1 = 0;
      v_error = Some msg;
      v_witness = None;
    }

(* --- the cell plan ---------------------------------------------------------- *)

type cell = {
  c_case : Wo_synth.Synth.case;
  c_test : L.t;
  c_key : string;  (** store key of the (program, spec, batch) triple *)
  c_spec : Wo_machines.Spec.t;
  c_machine : M.t;
  c_run : string;  (** [Spec.run_key c_spec] on the case's program *)
  c_loops : bool;
  c_pkey : Sweep.program_key;
  c_art : Wo_prog.Prog_compile.t option;
      (** the compiled artifact behind [c_pkey] — the one compilation the
          store key already paid for, shared by every spec and seed of
          the case *)
}

let litmus_of_case (c : Wo_synth.Synth.case) =
  {
    L.name = c.Wo_synth.Synth.name;
    L.description = Printf.sprintf "synthesized (%s)" c.Wo_synth.Synth.family;
    L.program = c.Wo_synth.Synth.program;
    L.drf0 =
      (c.Wo_synth.Synth.classification
      = Wo_synth.Synth.Drf0_by_construction);
    L.loops = Wo_prog.Program.has_loops c.Wo_synth.Synth.program;
    L.interesting = [];
  }

(* A catalogued test as a case: DRF0 if the test is, racy otherwise
   (the catalogue is curated: every non-DRF0 test races). *)
let case_of_litmus (t : L.t) =
  {
    Wo_synth.Synth.name = t.L.name;
    family = "litmus";
    seed = 0;
    program = t.L.program;
    classification =
      (if t.L.drf0 then Wo_synth.Synth.Drf0_by_construction
       else Wo_synth.Synth.Racy_by_construction);
    forbidden = None;
    forbidden_desc = None;
  }

type plan = { p_cells : cell array; p_shard : int }

(* One program key — one compiled canonical encoding — per case, shared
   by the store key and the SC memo table.  Cells are laid out
   case-major (every spec of a case lands in the same shard region), and
   the shard partition is a pure function of (cases, specs, shard size),
   so a resumed run walks the interrupted run's shards in the same
   order.  [run] re-plans on every call, warm ones included, so
   run keys are encoded once per (spec, program features), not per
   cell: a campaign's cases have few distinct features. *)
let plan config ~specs ~cases =
  let built =
    List.mapi
      (fun i spec ->
        ( i,
          spec,
          Wo_machines.Spec.build spec,
          J.to_string (Wo_machines.Spec.to_json spec) ))
      specs
  in
  let run_keys = Hashtbl.create 64 in
  let run_key i spec features =
    match Hashtbl.find_opt run_keys (i, features) with
    | Some k -> k
    | None ->
      let k = Wo_machines.Spec.run_key spec features in
      Hashtbl.add run_keys (i, features) k;
      k
  in
  let cells =
    List.concat_map
      (fun (c : Wo_synth.Synth.case) ->
        let test = litmus_of_case c in
        let features = Wo_prog.Program.features c.Wo_synth.Synth.program in
        let pkey, art = Sweep.program_key_art c.Wo_synth.Synth.program in
        List.map
          (fun (i, spec, machine, spec_json) ->
            {
              c_case = c;
              c_test = test;
              c_key =
                cell_key ~program_payload:pkey.Sweep.pk_payload ~spec_json
                  ~runs:config.runs ~base_seed:config.base_seed;
              c_spec = spec;
              c_machine = machine;
              c_run = run_key i spec features;
              c_loops = test.L.loops;
              c_pkey = pkey;
              c_art = art;
            })
          built)
      cases
  in
  { p_cells = Array.of_list cells; p_shard = max 1 config.shard }

let plan_cells p = Array.length p.p_cells

let plan_shards p = (Array.length p.p_cells + p.p_shard - 1) / p.p_shard

let shard_indices p i =
  let total = Array.length p.p_cells in
  let lo = i * p.p_shard and hi = min total ((i + 1) * p.p_shard) in
  if lo >= hi then [] else List.init (hi - lo) (fun k -> lo + k)

let cell_store_key p idx = p.p_cells.(idx).c_key

(* --- settling cells --------------------------------------------------------- *)

(* In-run SC memoization, digest-indexed with payload confirmation —
   enumerated lazily, only for programs some *unsettled* cell needs.
   One memo outlives every shard of a run, and counts what [settle] did
   with them. *)
type memo = {
  sc_tbl : Wo_prog.Outcome.t list Sweep.Key_tbl.t;
  mutable m_sc_sets : int;
  mutable m_shared : int;
}

let new_memo () =
  { sc_tbl = Sweep.Key_tbl.create 256; m_sc_sets = 0; m_shared = 0 }

(* The elements of [l] whose [key] does not occur earlier in [l]. *)
let firsts key l =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    l

let ensure_sc_sets memo ~domains cells =
  List.filter
    (fun (cell : cell) ->
      (not cell.c_loops) && Sweep.Key_tbl.find memo.sc_tbl cell.c_pkey = None)
    cells
  |> firsts (fun (cell : cell) -> cell.c_pkey.Sweep.pk_payload)
  |> Sweep.parallel_map ~domains (fun (cell : cell) ->
         ( cell.c_pkey,
           fst
             (Wo_prog.Enumerate.outcomes_stateful ~domains:1
                cell.c_test.L.program) ))
  |> List.iter (fun (key, outs) ->
         memo.m_sc_sets <- memo.m_sc_sets + 1;
         Sweep.Key_tbl.add memo.sc_tbl key outs)

(* Settle the given (fresh) cells: enumerate any missing SC sets, then
   evaluate in parallel.  Returns [(index, verdict string)] in input
   order.  Verdicts are deterministic in the cell alone, so a resumed
   run settling a cell writes the bytes an uninterrupted one would —
   what makes the resume contract byte-stable.

   One seed batch runs per run class: cells with the same program
   payload, the same DRF0 flag, the same expected-SC bit and the same
   [Spec.run_key].  A verdict reads the machine only through its runs
   and [expected_sc] (the flags themselves are not stored); members'
   runs agree in everything a verdict reads, and their machines'
   names reach only [Machine_error] and watchdog text, so the class's
   first cell answers for every member — except when its verdict
   carries such an error, where each member runs its own batch and
   keeps its own wording in the message. *)
let settle memo ~domains config p indices =
  let fresh = List.map (fun idx -> p.p_cells.(idx)) indices in
  ensure_sc_sets memo ~domains fresh;
  let class_of idx =
    let c = p.p_cells.(idx) in
    ( c.c_pkey.Sweep.pk_payload,
      c.c_test.L.drf0,
      expected_sc c.c_machine c.c_test,
      c.c_run )
  in
  let reps = firsts class_of indices in
  let rep = Hashtbl.create (List.length reps) in
  List.iter (fun idx -> Hashtbl.replace rep (class_of idx) idx) reps;
  (* Cells are laid out case-major, so consecutive indices alternate
     specs.  Execution is regrouped spec-major: each domain's strided
     walk then stays on one machine for long stretches, so its
     per-domain session rebinds programs (cheap) instead of cycling
     machines.  The verdicts are reassembled into input order — the
     bytes cannot depend on the execution grouping. *)
  let by_idx = Hashtbl.create (List.length indices) in
  let evaluate_all idxs =
    List.stable_sort
      (fun a b ->
        String.compare p.p_cells.(a).c_machine.M.name
          p.p_cells.(b).c_machine.M.name)
      idxs
    |> Sweep.parallel_map ~domains (fun idx ->
           let cell = p.p_cells.(idx) in
           let sc_outcomes =
             if cell.c_loops then None
             else Sweep.Key_tbl.find memo.sc_tbl cell.c_pkey
           in
           let v =
             evaluate ?compiled:cell.c_art ~runs:config.runs
               ~base_seed:config.base_seed ~sc_outcomes cell.c_machine
               cell.c_test
           in
           (idx, (v.v_error <> None, verdict_to_string v)))
    |> List.iter (fun (idx, v) -> Hashtbl.replace by_idx idx v)
  in
  evaluate_all reps;
  let class_verdict idx = Hashtbl.find by_idx (Hashtbl.find rep (class_of idx)) in
  let own =
    List.filter
      (fun idx -> (not (Hashtbl.mem by_idx idx)) && fst (class_verdict idx))
      indices
  in
  evaluate_all own;
  memo.m_shared <-
    memo.m_shared + List.length indices - List.length reps - List.length own;
  List.map
    (fun idx ->
      match Hashtbl.find_opt by_idx idx with
      | Some (_, s) -> (idx, s)
      | None -> (idx, snd (class_verdict idx)))
    indices

(* The verdicts whose store key has not come up earlier in the list:
   what a shard appends.  A key repeats when two cases share a program;
   the store answers with a key's first record, so a repeat would only
   be superseded. *)
let first_per_key p verdicts =
  firsts (fun (idx, _) -> cell_store_key p idx) verdicts

(* --- the sharded campaign -------------------------------------------------- *)

let emit_counters ~executed ~shared ~hits ~shards =
  let r = Wo_obs.Recorder.active () in
  if Wo_obs.Recorder.enabled r then begin
    let c name value =
      Wo_obs.Recorder.counter r ~cat:Wo_obs.Recorder.Camp ~track:0 ~name ~ts:0
        ~value
    in
    c "campaign.settled" executed;
    c "campaign.shared" shared;
    c "campaign.cache_hits" hits;
    c "campaign.shards" shards
  end

let findings_of p settled =
  let findings = ref [] in
  Array.iteri
    (fun idx s ->
      match s with
      | None -> ()
      | Some s when String.starts_with ~prefix:ok_prefix s -> ()
      | Some s -> (
        match verdict_of_string s with
        | Error _ -> ()
        | Ok v ->
          if not v.v_ok then begin
            let cell = p.p_cells.(idx) in
            findings :=
              {
                f_case = cell.c_case.Wo_synth.Synth.name;
                f_family = cell.c_case.Wo_synth.Synth.family;
                f_class =
                  Wo_synth.Synth.classification_name
                    cell.c_case.Wo_synth.Synth.classification;
                f_machine = cell.c_spec.Wo_machines.Spec.name;
                f_verdict = v;
              }
              :: !findings
          end))
    settled;
  List.sort
    (fun a b ->
      match compare a.f_case b.f_case with
      | 0 -> compare a.f_machine b.f_machine
      | c -> c)
    !findings

let domains_of config =
  match config.domains with Some d -> max 1 d | None -> Sweep.default_domains ()

type settled = {
  s_verdicts : verdict array;
  s_sc : Wo_prog.Outcome.t list Sweep.Key_tbl.t;
  s_sc_sets : int;
}

let settle_all config p =
  let memo = new_memo () in
  let verdicts =
    settle memo ~domains:(domains_of config) config p
      (List.init (plan_cells p) Fun.id)
  in
  {
    s_verdicts =
      Array.of_list
        (List.map (fun (_, s) -> Result.get_ok (verdict_of_string s)) verdicts);
    s_sc = memo.sc_tbl;
    s_sc_sets = memo.m_sc_sets;
  }

let run_with_shared ?on_shard config ~specs ~cases =
  let domains = domains_of config in
  let p = plan config ~specs ~cases in
  let total = plan_cells p in
  let memo = new_memo () in
  let executed = ref 0 and hits = ref 0 and shards_run = ref 0 in
  let stopped_early = ref false in
  (* Verdict strings of every cell this run settled or replayed, aligned
     with the plan — the findings pass reads these instead of hitting
     the store a second time per cell. *)
  let settled_arr : string option array = Array.make total None in
  let store = Store.openf config.store_path in
  let dead, count =
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    (try
       for i = 0 to plan_shards p - 1 do
         (match config.max_shards with
         | Some m when !shards_run >= m ->
           stopped_early := true;
           raise Exit
         | _ -> ());
         let fresh =
           List.filter
             (fun idx ->
               let key = cell_store_key p idx in
               match Store.find store ~key with
               | Some s ->
                 settled_arr.(idx) <- Some s;
                 (* A key this run wrote in an earlier shard (two cases
                    with one program) was settled by this run: the cell
                    shares that cell's batch.  A run that has written
                    nothing (a warm replay) never asks. *)
                 if !executed > 0 && Store.appended store ~key then begin
                   incr executed;
                   memo.m_shared <- memo.m_shared + 1
                 end
                 else incr hits;
                 false
               | None -> true)
             (shard_indices p i)
         in
         let verdicts = settle memo ~domains config p fresh in
         List.iter (fun (idx, s) -> settled_arr.(idx) <- Some s) verdicts;
         List.iter
           (fun (idx, s) -> Store.add store ~key:(cell_store_key p idx) ~value:s)
           (first_per_key p verdicts);
         Store.sync store;
         executed := !executed + List.length fresh;
         incr shards_run;
         match on_shard with
         | Some f ->
           f ~shard:i ~settled:!hits ~executed:!executed ~total
         | None -> ()
       done
     with Exit -> ());
    (Store.dead_estimate store, Store.length store)
  in
  (* Auto-compaction: a store that accumulated enough superseded
     duplicates (a settled key appended again — older builds wrote a
     shard's repeated keys twice) is rewritten in place once the run is
     over and the store is closed.  Lookup results are unchanged —
     compaction keeps exactly the record every [find] answers with. *)
  let compacted =
    match config.auto_compact with
    | Some threshold
      when (not !stopped_early)
           && count > 0 && dead > 0
           && float_of_int dead /. float_of_int count >= threshold ->
      Some (Store.compact config.store_path)
    | _ -> None
  in
  (* The findings pass replays every settled cell's verdict — stored
     strings, never recomputed simulations — so an interrupted-and-
     resumed campaign reports byte-identically to an uninterrupted
     one.  ([settled_arr] is [None] only for cells a [max_shards] stop
     left unvisited.) *)
  let findings = findings_of p settled_arr in
  let shared = memo.m_shared in
  emit_counters ~executed:!executed ~shared ~hits:!hits ~shards:!shards_run;
  let result =
    {
      r_total = total;
      r_executed = !executed;
      r_cache_hits = !hits;
      r_shards = !shards_run;
      r_stopped_early = !stopped_early;
      r_sc_sets = memo.m_sc_sets;
      r_findings = findings;
      r_store_records =
        (match compacted with
        | Some cs -> cs.Store.cs_after_records
        | None -> count);
      r_compacted = compacted;
    }
  in
  (result, shared)

let run ?on_shard config ~specs ~cases =
  fst (run_with_shared ?on_shard config ~specs ~cases)

(* --- reports --------------------------------------------------------------- *)

let findings_report r =
  let b = Buffer.create 1024 in
  if r.r_findings = [] then
    Buffer.add_string b
      (Printf.sprintf
         "campaign findings: none (%d cells, every consistency promise kept)\n"
         r.r_total)
  else begin
    Buffer.add_string b
      (Printf.sprintf "campaign findings: %d broken contract(s) over %d cells\n"
         (List.length r.r_findings) r.r_total);
    List.iter
      (fun f ->
        Buffer.add_string b
          (Printf.sprintf "\n%s [%s/%s] on %s: promised SC, but:\n" f.f_case
             f.f_family f.f_class f.f_machine);
        (match f.f_verdict.v_error with
        | Some e -> Buffer.add_string b (Printf.sprintf "  machine error: %s\n" e)
        | None -> ());
        (match f.f_verdict.v_violations with
        | [] -> ()
        | vs ->
          Buffer.add_string b
            (Printf.sprintf "  %d outcome(s) outside the SC set:\n"
               (List.length vs));
          List.iter
            (fun v -> Buffer.add_string b (Printf.sprintf "    %s\n" v))
            vs);
        if f.f_verdict.v_lemma1 > 0 then
          Buffer.add_string b
            (Printf.sprintf "  Lemma-1 failures: %d\n" f.f_verdict.v_lemma1);
        match f.f_verdict.v_witness with
        | None -> ()
        | Some w ->
          Buffer.add_string b "  witness trace:\n";
          String.split_on_char '\n' w
          |> List.iter (fun line ->
                 if line <> "" then
                   Buffer.add_string b (Printf.sprintf "    %s\n" line)))
      r.r_findings
  end;
  Buffer.contents b

let result_json ?shared config r =
  let shared =
    match shared with None -> [] | Some n -> [ ("shared", J.Int n) ]
  in
  [
    ("runs", J.Int config.runs);
    ("seed", J.Int config.base_seed);
    ("shard", J.Int config.shard);
    ("total_cells", J.Int r.r_total);
    ("executed", J.Int r.r_executed);
  ]
  @ shared
  @ [
    ("cache_hits", J.Int r.r_cache_hits);
    ("shards", J.Int r.r_shards);
    ("stopped_early", J.Bool r.r_stopped_early);
    ("sc_sets", J.Int r.r_sc_sets);
    ("findings", J.Int (List.length r.r_findings));
    ("store_records", J.Int r.r_store_records);
    ("compacted", J.Bool (r.r_compacted <> None));
  ]
