(* The four E19 workloads.

   Each one prepares its inputs from the seed (timed as set-up), then
   runs one work call per repetition: the library's own entry point
   ([Campaign.run], [Difftest.run], or the [wo check] loop) untraced,
   or a re-enactment of that entry point from the layers' public
   functions with a span around every call.  Both paths return the
   same [outcome], so the traced run is checked byte for byte against
   the untraced one. *)

module C = Wo_campaign.Campaign
module D = Wo_campaign.Difftest
module Store = Wo_campaign.Store
module E = Wo_prog.Enumerate
module S = Wo_machines.Spec
module M = Wo_machines.Machine
module L = Wo_litmus.Litmus
module R = Wo_litmus.Runner
module J = Wo_obs.Json
module Sweep = Wo_workload.Sweep
module Synth = Wo_synth.Synth
module Cycle = Wo_synth.Cycle

(* Load comes from one process on one OCaml domain, whatever the host
   has.  On the 2-vCPU reference host a second domain made campaign-cold
   only 1.27x faster and its call times several times noisier, so the
   numbers said more about the host than about the code. *)
let domains = 1

let quick =
  match Sys.getenv_opt "WO_BENCH_QUICK" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

(* Scratch files (campaign stores) live under the working directory,
   one subdirectory per process. *)
let workdir =
  lazy
    (let root = ".e2e-work" in
     let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
     List.iter
       (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
       [ root; dir ];
     dir)

let remove_workdir () =
  if Lazy.is_val workdir then begin
    let dir = Lazy.force workdir in
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir;
    (try Sys.rmdir (Filename.dirname dir) with Sys_error _ -> ())
  end

let scratch name = Filename.concat (Lazy.force workdir) name

(* Bytes the workload keeps on disk: its campaign store, if any. *)
let scratch_bytes () =
  if not (Lazy.is_val workdir) then 0
  else
    let dir = Lazy.force workdir in
    Array.fold_left
      (fun n f -> n + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (Sys.readdir dir)

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let timed f =
  let t0 = Trace.now () in
  let r = f () in
  (Trace.now () -. t0, r)

(* --- outcomes and their checks ---------------------------------------------- *)

type part = { part : string; covers : int; digest : string }
(** One checked unit of a work call's output: [covers] items, digested. *)

type outcome = {
  parts : part list;
  violations : int;  (** items breaking the workload's invariant *)
  report : string;  (** the rendered report, compared byte for byte *)
}

let part ?(covers = 1) part text =
  { part; covers; digest = Digest.to_hex (Digest.string text) }

module type WORKLOAD = sig
  val name : string

  val noun : string
  (** What [items_per_s] counts. *)

  type inputs

  val setup : Trace.t -> seed:int -> inputs
  (** Input preparation; timed as [setup_s]. *)

  val start : inputs -> unit
  (** Untimed preparation after set-up (the warm campaign's settling
      pass). *)

  val items : inputs -> int

  val work : inputs -> float * outcome
  (** One untraced work call: its wall time and checked output. *)

  val work_traced : Trace.t -> inputs -> float * outcome
  (** The re-enactment, with spans. *)
end

(* --- shared input generators ------------------------------------------------- *)

(* A traced program generator: one span for the whole batch, carrying
   how many cases it made and how many programs were structurally
   distinct. *)
let synthesized tr name ~program gen =
  let distinct cases =
    List.sort_uniq compare
      (List.map
         (fun c ->
           let (p : Wo_prog.Program.t) = program c in
           Digest.string (Marshal.to_string (p.threads, p.initial, p.observable) []))
         cases)
    |> List.length
  in
  Trace.span tr name
    ~args:(fun cases -> [ ("cases", List.length cases); ("distinct", distinct cases) ])
    gen

(* Every cyclic arrangement of a conflict multiset, one per rotation
   class, in a fixed order. *)
let necklaces kinds =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.sort_uniq compare l
      |> List.concat_map (fun x ->
             let rec drop = function
               | [] -> []
               | y :: ys -> if y = x then ys else y :: drop ys
             in
             List.map (fun p -> x :: p) (perms (drop l)))
  in
  let rotations l =
    List.init (List.length l) (fun r ->
        List.filteri (fun i _ -> i >= r) l @ List.filteri (fun i _ -> i < r) l)
  in
  List.sort_uniq compare
    (List.map (fun p -> List.hd (List.sort compare (rotations p))) (perms kinds))

(* Critical-cycle programs whose search cost barely depends on the seed:
   [variants] copies of every arrangement of [kinds], each rotated and
   padded by the seeded generator.  [sync] makes every conflict-edge
   endpoint a synchronization operation (DRF0 by construction); without
   it no endpoint is (racy by construction). *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Wo_sim.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let cycle_programs ~prefix ~kinds ~variants ~sync ~seed =
  let rng = Wo_sim.Rng.make seed in
  let k = List.length kinds in
  List.concat_map
    (fun v ->
      List.mapi
        (fun j arrangement ->
          let r = Wo_sim.Rng.int rng k in
          let edges =
            List.init k (fun i ->
                {
                  Cycle.conflict = List.nth arrangement ((i + r) mod k);
                  sync_from = sync;
                  sync_to = sync;
                })
          in
          let shape = { Cycle.edges; padding = shuffle rng (List.init k (fun i -> i mod 3)) } in
          let name =
            Printf.sprintf "%s-%d-%d.%d-%s" prefix seed v j (Cycle.slug shape)
          in
          Cycle.program ~name shape)
        (necklaces kinds))
    (List.init variants Fun.id)

let preset name =
  match Wo_machines.Presets.spec_of name with
  | Some s -> s
  | None -> failwith ("unknown machine " ^ name)

(* Which Memsys backend a spec runs on: the three machine-layer timings. *)
let backend (spec : S.t) =
  match (spec.S.model, spec.S.memory) with
  | S.Model_sc, S.Cached _ -> "cached"
  | S.Model_sc, (S.Uncached _ | S.Ideal) -> "uncached"
  | (S.Model_tso _ | S.Model_pso _ | S.Model_ra _), _ -> "ordering"

let stateful_args (_, (st : E.stateful_stats)) =
  [
    ("states", st.E.sf_states);
    ("distinct", st.E.sf_distinct);
    ("hits", st.E.sf_hits);
  ]

(* --- campaign-cold and campaign-warm ---------------------------------------- *)

(* The CLI's [wo campaign --grid]: three machines, each expanded to the
   12-point fabric x sync-policy grid.  This copies the private
   [campaign_grid] of bin/wo.ml; the parity test in this directory
   keeps the two in step. *)
let campaign_grid spec =
  S.grid
    ~fabrics:
      [
        Wo_machines.Memsys.Bus { transfer_cycles = 2 };
        Wo_machines.Memsys.Net { base = 2; jitter = 6 };
        Wo_machines.Memsys.Net_fixed { latency = 4 };
      ]
    ~syncs:[ S.Sync_none; S.Sync_fence; S.Sync_reserve_bit; S.Sync_drf1_two_level ]
    spec

let campaign_machines = [ "wo-new"; "bus-nocache-wb"; "tso-wb" ]

let campaign_families = [ "cycle-drf0"; "cycle-racy"; "cycle-mixed"; "mutate" ]

let campaign_shard = 256

let campaign_count = if quick then 2 else 100

type cell = {
  case : Synth.case;
  test : L.t;
  key : string;
  spec : S.t;
  machine : M.t;
  pkey : Sweep.program_key;
  art : Wo_prog.Prog_compile.t option;
}

type campaign = {
  cases : Synth.case list;
  specs : S.t list;
  config : C.config;
  cells : cell array;  (** the plan: case-major, as [Campaign.plan] lays it *)
  mutable settled_report : string;  (** warm: the settling pass's report *)
  mutable settled_parts : part list;
}

(* [Campaign.plan], re-enacted: every spec built once, every case
   compiled once for its program key, one store key per cell. *)
let plan tr ~(config : C.config) ~specs ~cases =
  let built =
    List.map
      (fun spec ->
        Trace.span tr "spec.build" (fun () ->
            (spec, S.build spec, J.to_string (S.to_json spec))))
      specs
  in
  Array.of_list
    (List.concat_map
       (fun (case : Synth.case) ->
         Trace.span tr "compile.key"
           ~args:(function
             | { art = None; _ } :: _ -> [ ("fallback", 1) ]
             | _ -> [ ("fallback", 0) ])
           (fun () ->
             let test = C.litmus_of_case case in
             let pkey, art = Sweep.program_key_art case.Synth.program in
             List.map
               (fun (spec, machine, spec_json) ->
                 {
                   case;
                   test;
                   key =
                     C.cell_key ~program_payload:pkey.Sweep.pk_payload
                       ~spec_json ~runs:config.C.runs
                       ~base_seed:config.C.base_seed;
                   spec;
                   machine;
                   pkey;
                   art;
                 })
               built))
       cases)

let campaign_setup tr ~seed ~runs ~count ~store =
  Trace.span tr "setup" @@ fun () ->
  let specs =
    List.concat_map (fun m -> campaign_grid (preset m)) campaign_machines
  in
  let corpus = C.catalogue_corpus () in
  let cases =
    synthesized tr "synth.batch"
      ~program:(fun (c : Synth.case) -> c.Synth.program)
      (fun () ->
        List.concat_map
          (fun family ->
            match Synth.batch ~corpus ~family ~base_seed:seed ~count () with
            | Ok cs -> cs
            | Error e -> failwith e)
          campaign_families)
  in
  let config =
    {
      C.runs;
      base_seed = seed;
      domains = Some domains;
      shard = campaign_shard;
      max_shards = None;
      store_path = scratch store;
      auto_compact = None;
    }
  in
  {
    cases;
    specs;
    config;
    cells = plan tr ~config ~specs ~cases;
    settled_report = "";
    settled_parts = [];
  }

let shards total = (total + campaign_shard - 1) / campaign_shard

(* One part per shard: the digest of its cells' verdict strings. *)
let shard_parts (verdicts : string option array) =
  let total = Array.length verdicts in
  List.init (shards total) (fun i ->
      let lo = i * campaign_shard and hi = min total ((i + 1) * campaign_shard) in
      let b = Buffer.create 4096 in
      for idx = lo to hi - 1 do
        Buffer.add_string b (Option.value ~default:"<missing>" verdicts.(idx));
        Buffer.add_char b '\n'
      done;
      part ~covers:(hi - lo) (Printf.sprintf "shard-%04d" i) (Buffer.contents b))

(* Every cell's verdict as the store holds it. *)
let stored_verdicts c =
  let store = Store.openf c.config.C.store_path in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  Array.map (fun cell -> Store.find store ~key:cell.key) c.cells

let missing verdicts =
  Array.fold_left (fun n v -> if v = None then n + 1 else n) 0 verdicts

(* The cold invariants: no broken promise, and every cell either
   settled by this run or already in the store. *)
let cold_violations c (r : C.result) =
  let total = Array.length c.cells in
  List.length r.C.r_findings
  + if r.C.r_executed + r.C.r_cache_hits = total && r.C.r_total = total then 0
    else total

(* The warm invariants: nothing re-simulated, every cell replayed, and
   the report byte-equal to the settling pass's. *)
let warm_violations c (r : C.result) report =
  let total = Array.length c.cells in
  if r.C.r_executed = 0 && r.C.r_cache_hits = total
     && String.equal report c.settled_report
  then 0
  else total

(* [Campaign.run], re-enacted shard by shard from its public pieces. *)
let campaign_traced tr c =
  let config = c.config in
  Trace.span tr "work" @@ fun () ->
  let cells = plan tr ~config ~specs:c.specs ~cases:c.cases in
  let total = Array.length cells in
  let settled = Array.make total None in
  let memo = Hashtbl.create 256 in
  let memo_find pkey =
    Option.bind (Hashtbl.find_opt memo pkey.Sweep.pk_digest) (Sweep.find_keyed pkey)
  in
  let executed = ref 0 and hits = ref 0 and sc_sets = ref 0 in
  let store = Trace.span tr "store.open" (fun () -> Store.openf config.C.store_path) in
  for i = 0 to shards total - 1 do
    let lo = i * campaign_shard and hi = min total ((i + 1) * campaign_shard) in
    let fresh =
      List.filter
        (fun idx ->
          match
            Trace.span tr "store.find" ~item:idx (fun () ->
                Store.find store ~key:cells.(idx).key)
          with
          | Some s ->
            incr hits;
            settled.(idx) <- Some s;
            false
          | None -> true)
        (List.init (hi - lo) (fun k -> lo + k))
    in
    let missing_sc =
      List.fold_left
        (fun acc idx ->
          let cell = cells.(idx) in
          if cell.test.L.loops || memo_find cell.pkey <> None
             || Sweep.find_keyed cell.pkey acc <> None
          then acc
          else (cell.pkey, cell.test.L.program) :: acc)
        [] fresh
      |> List.rev
    in
    (* ([Sweep.parallel_map] of an empty list does nothing: no span) *)
    let enumerated =
      if missing_sc = [] then []
      else
        Trace.region tr "enumerate.parallel" (fun () ->
            Sweep.parallel_map ~domains
              (fun (pkey, program) ->
                ( pkey,
                  fst
                    (Trace.span tr "enumerate.outcomes" ~args:stateful_args (fun () ->
                         E.outcomes_stateful ~domains:1 program)) ))
              missing_sc)
    in
    List.iter
      (fun (pkey, outs) ->
        incr sc_sets;
        let prev = Option.value ~default:[] (Hashtbl.find_opt memo pkey.Sweep.pk_digest) in
        Hashtbl.replace memo pkey.Sweep.pk_digest (prev @ [ (pkey, outs) ]))
      enumerated;
    let grouped =
      List.stable_sort
        (fun a b -> String.compare cells.(a).machine.M.name cells.(b).machine.M.name)
        fresh
    in
    let verdicts =
      if grouped = [] then []
      else
        Trace.region tr "machine.parallel" (fun () ->
            Sweep.parallel_map ~domains
              (fun idx ->
                let cell = cells.(idx) in
                let sc_outcomes =
                  if cell.test.L.loops then None else memo_find cell.pkey
                in
                let v =
                  Trace.span tr ("machine." ^ backend cell.spec) ~item:idx ~alloc:true
                    (fun () ->
                      C.evaluate ~engine:M.Compiled ?compiled:cell.art
                        ~runs:config.C.runs ~base_seed:config.C.base_seed ~sc_outcomes
                        cell.machine cell.test)
                in
                ( idx,
                  Trace.span tr "verdict.encode" ~item:idx (fun () ->
                      C.verdict_to_string v) ))
              grouped)
    in
    List.iter (fun (idx, s) -> settled.(idx) <- Some s) verdicts;
    List.iter
      (fun idx ->
        Trace.span tr "store.add" ~item:idx (fun () ->
            Store.add store ~key:cells.(idx).key ~value:(Option.get settled.(idx))))
      fresh;
    Trace.span tr "store.sync" (fun () -> Store.sync store);
    executed := !executed + List.length fresh
  done;
  let records = Store.length store in
  Trace.span tr "store.close" (fun () -> Store.close store);
  (* The findings pass decodes every verdict string: one span for the
     pass, since a span per cell would cost as much as the decoding. *)
  let findings = ref [] in
  Trace.span tr "verdict.decode" (fun () ->
      Array.iteri
        (fun idx s ->
          match C.verdict_of_string (Option.get s) with
          | Ok v when not v.C.v_ok ->
            let cell = cells.(idx) in
            findings :=
              {
                C.f_case = cell.case.Synth.name;
                f_family = cell.case.Synth.family;
                f_class = Synth.classification_name cell.case.Synth.classification;
                f_machine = cell.spec.S.name;
                f_verdict = v;
              }
              :: !findings
          | Ok _ | Error _ -> ())
        settled);
  let result =
    {
      C.r_total = total;
      r_executed = !executed;
      r_cache_hits = !hits;
      r_shards = shards total;
      r_stopped_early = false;
      r_sc_sets = !sc_sets;
      r_findings =
        List.sort
          (fun a b -> compare (a.C.f_case, a.C.f_machine) (b.C.f_case, b.C.f_machine))
          !findings;
      r_store_records = records;
      r_compacted = None;
    }
  in
  let report = Trace.span tr "report.findings" (fun () -> C.findings_report result) in
  (result, settled, report)

module Campaign_cold = struct
  let name = "campaign-cold"

  let noun = "cells settled"

  type inputs = campaign

  let setup tr ~seed =
    campaign_setup tr ~seed ~runs:20 ~count:campaign_count ~store:"cold.store"

  let start _ = ()

  let items c = Array.length c.cells

  let outcome c r report verdicts =
    {
      parts = shard_parts verdicts;
      violations = cold_violations c r + missing verdicts;
      report;
    }

  let work c =
    remove_if_exists c.config.C.store_path;
    let dt, r = timed (fun () -> C.run c.config ~specs:c.specs ~cases:c.cases) in
    (dt, outcome c r (C.findings_report r) (stored_verdicts c))

  let work_traced tr c =
    remove_if_exists c.config.C.store_path;
    let dt, (r, settled, report) = timed (fun () -> campaign_traced tr c) in
    (dt, outcome c r report settled)
end

module Campaign_warm = struct
  let name = "campaign-warm"

  let noun = "cells replayed"

  type inputs = campaign

  let setup tr ~seed =
    campaign_setup tr ~seed ~runs:2 ~count:campaign_count ~store:"warm.store"

  (* The untimed settling pass: a cold run at 2 runs/cell. *)
  let start c =
    remove_if_exists c.config.C.store_path;
    let r = C.run c.config ~specs:c.specs ~cases:c.cases in
    c.settled_report <- C.findings_report r;
    c.settled_parts <- shard_parts (stored_verdicts c)

  let items c = Array.length c.cells

  let work c =
    let dt, r = timed (fun () -> C.run c.config ~specs:c.specs ~cases:c.cases) in
    let report = C.findings_report r in
    (dt, { parts = c.settled_parts; violations = warm_violations c r report; report })

  let work_traced tr c =
    let dt, (r, settled, report) = timed (fun () -> campaign_traced tr c) in
    (dt, { parts = shard_parts settled; violations = warm_violations c r report; report })
end

(* --- difftest-racy ------------------------------------------------------------ *)

type difftest = { d_seed : int; d_cases : D.case list; d_specs : S.t list }

let difftest_runs = 40

let difftest_max_states = 2_000_000

let summary_outcome (s : D.summary) =
  {
    parts =
      List.map
        (fun (r : D.report) ->
          part
            (r.D.rcase.D.cname ^ "@" ^ r.D.rmachine)
            (J.to_string (D.report_to_json r)))
        s.D.reports;
    violations = List.length s.D.violating;
    report = J.to_string (D.summary_to_json s);
  }

(* [Difftest.run]'s loop, re-enacted from its public pieces. *)
let difftest_traced tr d =
  let runs = difftest_runs and base_seed = d.d_seed in
  Trace.span tr "work" @@ fun () ->
  let memo tbl key f =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = f () in
      Hashtbl.replace tbl key v;
      v
  in
  let in_set set o = List.exists (fun a -> Wo_prog.Outcome.compare a o = 0) set in
  let sc_sets = Hashtbl.create 32 and model_sets = Hashtbl.create 32 in
  let reports =
    List.concat_map
      (fun (spec : S.t) ->
        let machine = Trace.span tr "spec.build" (fun () -> S.build spec) in
        let kind = "machine." ^ backend spec in
        let session =
          Trace.span tr kind ~alloc:true (fun () -> M.new_session machine M.Compiled)
        in
        let hw = S.model_hardware spec.S.model in
        let model = S.model_to_string spec.S.model in
        List.mapi
          (fun i (c : D.case) ->
            let sc_set =
              if c.D.loops then []
              else
                memo sc_sets c.D.cname (fun () ->
                    Trace.span tr "enumerate.tree" ~item:i
                      ~args:(fun (_, (st : E.stats)) -> [ ("states", st.E.states) ])
                      (fun () -> E.outcomes_with_stats c.D.program)
                    |> fun (outs, st) ->
                    if st.E.truncated then raise E.Limit_exceeded else outs)
            in
            let check =
              if c.D.drf0 then if c.D.loops then D.Lemma1_only else D.Against_sc
              else if c.D.racy && not c.D.loops then D.Against_model
              else D.Report_only
            in
            let test =
              {
                L.name = c.D.cname;
                description = "";
                program = c.D.program;
                drf0 = c.D.drf0;
                loops = c.D.loops;
                interesting = [];
              }
            in
            let rep =
              Trace.span tr kind ~item:i ~alloc:true (fun () ->
                  R.run ~runs ~base_seed ~check_lemma1:c.D.drf0 ~sc_outcomes:sc_set
                    ~session machine test)
            in
            let beyond_sc = List.fold_left (fun n (_, k) -> n + k) 0 rep.R.violations in
            let check, allowed_set =
              match check with
              | D.Against_model -> (
                match
                  memo model_sets (c.D.cname, hw.Wo_core.Sync_model.hname) (fun () ->
                      Trace.span tr ("relaxed." ^ model) ~item:i ~alloc:true
                        ~args:(function
                          | Some set -> [ ("outcomes", List.length set); ("downgraded", 0) ]
                          | None -> [ ("downgraded", 1) ])
                        (fun () ->
                          match
                            Wo_prog.Relaxed.outcomes ~max_states:difftest_max_states hw
                              c.D.program
                          with
                          | set -> Some set
                          | exception Wo_prog.Relaxed.Too_many_states _ -> None))
                with
                | Some set -> (D.Against_model, Some set)
                | None -> (D.Report_only, None))
              | D.Against_sc -> (D.Against_sc, Some sc_set)
              | (D.Lemma1_only | D.Report_only) as k -> (k, None)
            in
            let violations =
              match (check, allowed_set) with
              | (D.Against_sc | D.Against_model), Some set ->
                List.filter (fun (o, _) -> not (in_set set o)) rep.R.histogram
              | _ -> []
            in
            let witness =
              match violations with
              | (bad, _) :: _ ->
                let rec search seed =
                  if seed >= base_seed + runs then None
                  else
                    let r = M.session_run session ~seed c.D.program in
                    if Wo_prog.Outcome.compare r.M.outcome bad = 0 then
                      Some
                        {
                          D.wseed = seed;
                          woutcome = bad;
                          wtrace = Format.asprintf "%a" Wo_sim.Trace.pp r.M.trace;
                        }
                    else search (seed + 1)
                in
                Trace.span tr kind ~alloc:true (fun () -> search base_seed)
              | [] -> None
            in
            {
              D.rcase = c;
              rmachine = spec.S.name;
              rmodel = model;
              rruns = runs;
              rcheck = check;
              allowed = (match allowed_set with Some s -> List.length s | None -> 0);
              distinct = List.length rep.R.histogram;
              beyond_sc;
              violations;
              lemma1_failures = rep.R.lemma1_failures;
              witness;
            })
          d.d_cases)
      d.d_specs
  in
  {
    D.reports;
    cases = List.length d.d_cases;
    machines = List.length d.d_specs;
    violating = List.filter (fun r -> not (D.compliant r)) reports;
  }

module Difftest_racy = struct
  let name = "difftest-racy"

  let noun = "checks"

  type inputs = difftest

  let setup tr ~seed =
    Trace.span tr "setup" @@ fun () ->
    let litmus = if quick then [] else List.map D.case_of_litmus L.all in
    let programs =
      synthesized tr "synth.cycles" ~program:Fun.id (fun () ->
          if quick then
            cycle_programs ~prefix:"racy" ~kinds:Cycle.[ Rf; Fr; Ws ] ~variants:1
              ~sync:false ~seed
          else
            cycle_programs ~prefix:"racy" ~kinds:Cycle.[ Rf; Rf; Fr; Fr; Ws ]
              ~variants:4 ~sync:false ~seed)
    in
    let synth =
      List.map
        (fun (p : Wo_prog.Program.t) ->
          {
            D.cname = p.Wo_prog.Program.name;
            program = p;
            drf0 = false;
            racy = true;
            loops = false;
          })
        programs
    in
    {
      d_seed = seed;
      d_cases = litmus @ synth;
      d_specs = List.map preset [ "tso-wb"; "pso-wb"; "ra-window" ];
    }

  let start _ = ()

  let items d = List.length d.d_cases * List.length d.d_specs

  let work d =
    let dt, s =
      timed (fun () ->
          D.run ~specs:d.d_specs ~runs:difftest_runs ~base_seed:d.d_seed
            ~max_states:difftest_max_states ~engine:M.Compiled ~cases:d.d_cases ())
    in
    (dt, summary_outcome s)

  let work_traced tr d =
    let dt, s = timed (fun () -> difftest_traced tr d) in
    (dt, summary_outcome s)
end

(* --- drf0-check ---------------------------------------------------------------- *)

(* The [wo check] loop: Definition 3's quantifier, then the SC outcome
   set, both as stateful searches on [domains] domains.  Untraced, the
   tracer is [Trace.off]. *)
let check_all tr programs =
  Trace.span tr "work" @@ fun () ->
  List.mapi
    (fun i (p : Wo_prog.Program.t) ->
      let verdict, _ =
        Trace.span tr "enumerate.check" ~item:i ~args:stateful_args (fun () ->
            E.check_drf0_stateful ~domains p)
      in
      let outs, _ =
        Trace.span tr "enumerate.outcomes" ~item:i ~args:stateful_args (fun () ->
            E.outcomes_stateful ~domains p)
      in
      (p.Wo_prog.Program.name, Result.is_ok verdict, outs))
    programs

module Drf0_check = struct
  let name = "drf0-check"

  let noun = "programs"

  type inputs = Wo_prog.Program.t list

  let setup tr ~seed =
    Trace.span tr "setup" @@ fun () ->
    synthesized tr "synth.cycles" ~program:Fun.id (fun () ->
        if quick then
          cycle_programs ~prefix:"drf0" ~kinds:Cycle.[ Rf; Fr; Ws; Ws ] ~variants:1
            ~sync:true ~seed
        else
          cycle_programs ~prefix:"drf0" ~kinds:Cycle.[ Rf; Rf; Fr; Fr; Ws; Ws ]
            ~variants:2 ~sync:true ~seed)

  let start _ = ()

  let items = List.length

  let outcome results =
    {
      parts =
        List.map
          (fun (name, drf0, outs) ->
            part name
              (Format.asprintf "%b %a" drf0
                 (Format.pp_print_list ~pp_sep:Format.pp_print_space
                    Wo_prog.Outcome.pp)
                 outs))
          results;
      violations = List.length (List.filter (fun (_, drf0, _) -> not drf0) results);
      report = "";
    }

  let work ps =
    let dt, r = timed (fun () -> check_all Trace.off ps) in
    (dt, outcome r)

  let work_traced tr ps =
    let dt, r = timed (fun () -> check_all tr ps) in
    (dt, outcome r)
end

let all : (module WORKLOAD) list =
  [
    (module Campaign_cold);
    (module Campaign_warm);
    (module Difftest_racy);
    (module Drf0_check);
  ]
