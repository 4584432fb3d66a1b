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
   catalogued test.  Deterministic in the binary, which is what lets a
   worker process regenerate a coordinator's exact case list from the
   manifest parameters alone. *)
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

(* A full trace of the first run whose outcome (or Lemma-1 check) breaks
   the promise — captured once, stored with the verdict, and replayed
   from the store forever after. *)
let witness_of machine (test : L.t) ~runs ~base_seed ~sc_outcomes =
  let init = Wo_prog.Program.initial_value test.L.program in
  let rec go seed =
    if seed >= base_seed + runs then None
    else
      let r = M.run machine ~seed test.L.program in
      let bad_outcome =
        match sc_outcomes with
        | Some sc ->
          not
            (List.exists
               (fun o -> Wo_prog.Outcome.compare o r.M.outcome = 0)
               sc)
        | None -> false
      in
      let bad_lemma1 =
        (not bad_outcome) && test.L.drf0
        && (match M.check_lemma1 ~init r with Ok () -> false | Error _ -> true)
      in
      if bad_outcome || bad_lemma1 then
        Some
          (Format.asprintf "seed %d, outcome %a%s@.%a" seed Wo_prog.Outcome.pp
             r.M.outcome
             (if bad_lemma1 then " (Lemma-1 violation)" else "")
             Wo_sim.Trace.pp r.M.trace)
      else go (seed + 1)
  in
  go base_seed

let evaluate ?(engine = M.Compiled) ?compiled ~runs ~base_seed ~sc_outcomes
    machine (test : L.t) =
  try
    (* The seed batch runs through the calling domain's reusable session
       (fabric and memory system built once per machine per domain, reset
       between seeds) — the verdict bytes are independent of both the
       session reuse and the engine, which is what lets the store replay
       them forever. *)
    let session = Sweep.domain_session ~engine machine in
    let report =
      Wo_litmus.Runner.run ~runs ~base_seed ?sc_outcomes ~engine ~session
        ?compiled machine test
    in
    let expected_sc =
      machine.M.sequentially_consistent
      || (machine.M.weakly_ordered_drf0 && test.L.drf0)
    in
    let appears = Wo_litmus.Runner.appears_sc report in
    let ok = (not expected_sc) || appears in
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
      v_witness =
        (if ok then None
         else witness_of machine test ~runs ~base_seed ~sc_outcomes);
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

type plan = { p_cells : cell array; p_shard : int }

(* One program key — one compiled canonical encoding — per case, shared
   by the store key and the SC memo table.  Cells are laid out
   case-major (every spec of a case lands in the same shard region), and
   the shard partition is a pure function of (cases, specs, shard size):
   every process that builds the same plan agrees on which cells shard
   [i] holds — the whole multi-process protocol rests on this. *)
let plan config ~specs ~cases =
  let built =
    List.map
      (fun spec ->
        ( spec,
          Wo_machines.Spec.build spec,
          J.to_string (Wo_machines.Spec.to_json spec) ))
      specs
  in
  let cells =
    List.concat_map
      (fun (c : Wo_synth.Synth.case) ->
        let test = litmus_of_case c in
        let pkey, art = Sweep.program_key_art c.Wo_synth.Synth.program in
        List.map
          (fun (spec, machine, spec_json) ->
            {
              c_case = c;
              c_test = test;
              c_key =
                cell_key ~program_payload:pkey.Sweep.pk_payload ~spec_json
                  ~runs:config.runs ~base_seed:config.base_seed;
              c_spec = spec;
              c_machine = machine;
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
   One memo outlives many shards (and, in a worker, many claims). *)
type memo = {
  sc_tbl :
    (Digest.t, (Sweep.program_key * Wo_prog.Outcome.t list) list) Hashtbl.t;
  mutable m_sc_sets : int;
}

let memo_create () = { sc_tbl = Hashtbl.create 256; m_sc_sets = 0 }

let memo_sc_sets m = m.m_sc_sets

let sc_find memo key =
  match Hashtbl.find_opt memo.sc_tbl key.Sweep.pk_digest with
  | None -> None
  | Some bindings -> Sweep.find_keyed key bindings

let ensure_sc_sets memo ~domains cells =
  let missing =
    List.fold_left
      (fun acc (cell : cell) ->
        if cell.c_loops then acc
        else if sc_find memo cell.c_pkey <> None then acc
        else if Sweep.find_keyed cell.c_pkey acc <> None then acc
        else (cell.c_pkey, cell.c_test.L.program) :: acc)
      [] cells
    |> List.rev
  in
  let enumerated =
    Sweep.parallel_map ~domains
      (fun (key, program) ->
        ( key,
          fst (Wo_prog.Enumerate.outcomes_stateful ~domains:1 program) ))
      missing
  in
  List.iter
    (fun (key, outs) ->
      memo.m_sc_sets <- memo.m_sc_sets + 1;
      let prev =
        Option.value ~default:[]
          (Hashtbl.find_opt memo.sc_tbl key.Sweep.pk_digest)
      in
      Hashtbl.replace memo.sc_tbl key.Sweep.pk_digest (prev @ [ (key, outs) ]))
    enumerated

(* Settle the given (fresh) cells: enumerate any missing SC sets, then
   evaluate in parallel.  Returns [(index, verdict string)] in input
   order.  Verdicts are deterministic in the cell alone, so any process
   settling the same cell writes the same bytes — what makes both the
   resume contract and the multi-worker merge byte-stable. *)
let settle ?(engine = M.Compiled) memo ~domains config p indices =
  let fresh = List.map (fun idx -> p.p_cells.(idx)) indices in
  ensure_sc_sets memo ~domains fresh;
  (* Cells are laid out case-major, so consecutive indices alternate
     specs.  Execution is regrouped spec-major: each worker's strided
     walk then stays on one machine for long stretches, so its
     per-domain session rebinds programs (cheap) instead of cycling
     machines.  The verdicts are reassembled into input order — the
     bytes cannot depend on the execution grouping. *)
  let grouped =
    List.stable_sort
      (fun a b ->
        String.compare p.p_cells.(a).c_machine.M.name
          p.p_cells.(b).c_machine.M.name)
      indices
  in
  let settled =
    Sweep.parallel_map ~domains
      (fun idx ->
        let cell = p.p_cells.(idx) in
        let sc_outcomes =
          if cell.c_loops then None else sc_find memo cell.c_pkey
        in
        ( idx,
          verdict_to_string
            (evaluate ~engine ?compiled:cell.c_art ~runs:config.runs
               ~base_seed:config.base_seed ~sc_outcomes cell.c_machine
               cell.c_test) ))
      grouped
  in
  let by_idx = Hashtbl.create (List.length settled) in
  List.iter (fun (idx, v) -> Hashtbl.replace by_idx idx v) settled;
  List.map (fun idx -> (idx, Hashtbl.find by_idx idx)) indices

(* --- the sharded campaign -------------------------------------------------- *)

let emit_counters ~executed ~hits ~shards =
  let r = Wo_obs.Recorder.active () in
  if Wo_obs.Recorder.enabled r then begin
    let c name value =
      Wo_obs.Recorder.counter r ~cat:Wo_obs.Recorder.Camp ~track:0 ~name ~ts:0
        ~value
    in
    c "campaign.settled" executed;
    c "campaign.cache_hits" hits;
    c "campaign.shards" shards
  end

let config_domains config =
  match config.domains with
  | Some d -> max 1 d
  | None -> Sweep.default_domains ()

let findings_of p settled =
  let findings = ref [] in
  Array.iteri
    (fun idx s ->
      match s with
      | None -> ()
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

let run ?engine ?on_shard config ~specs ~cases =
  let domains = config_domains config in
  let p = plan config ~specs ~cases in
  let total = plan_cells p in
  let memo = memo_create () in
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
               match Store.find store ~key:(cell_store_key p idx) with
               | Some s ->
                 incr hits;
                 settled_arr.(idx) <- Some s;
                 false
               | None -> true)
             (shard_indices p i)
         in
         let verdicts = settle ?engine memo ~domains config p fresh in
         List.iter
           (fun (idx, s) ->
             Store.add store ~key:(cell_store_key p idx) ~value:s;
             settled_arr.(idx) <- Some s)
           verdicts;
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
     duplicates (e.g. re-settled shards merged from a killed worker's
     segment) is rewritten in place once the run is over and the store
     is closed.  Lookup results are unchanged — compaction keeps
     exactly the record every [find] answers with. *)
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
  emit_counters ~executed:!executed ~hits:!hits ~shards:!shards_run;
  {
    r_total = total;
    r_executed = !executed;
    r_cache_hits = !hits;
    r_shards = !shards_run;
    r_stopped_early = !stopped_early;
    r_sc_sets = memo_sc_sets memo;
    r_findings = findings;
    r_store_records =
      (match compacted with
      | Some cs -> cs.Store.cs_after_records
      | None -> count);
    r_compacted = compacted;
  }

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

let result_json config r =
  [
    ("runs", J.Int config.runs);
    ("seed", J.Int config.base_seed);
    ("shard", J.Int config.shard);
    ("total_cells", J.Int r.r_total);
    ("executed", J.Int r.r_executed);
    ("cache_hits", J.Int r.r_cache_hits);
    ("shards", J.Int r.r_shards);
    ("stopped_early", J.Bool r.r_stopped_early);
    ("sc_sets", J.Int r.r_sc_sets);
    ("findings", J.Int (List.length r.r_findings));
    ("store_records", J.Int r.r_store_records);
    ("compacted", J.Bool (r.r_compacted <> None));
  ]
