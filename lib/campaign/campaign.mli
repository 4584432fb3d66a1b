(** The resumable campaign engine.

    A campaign runs a set of synthesized (or catalogued) litmus cases
    against a set of machine specs, in sharded work units, recording
    every cell's verdict in the persistent {!Store}.  Cells are keyed by
    the triple the verdict depends on — the program's compiled canonical
    encoding, the machine spec's canonical JSON, and the (runs, seed)
    batch — so a restarted campaign {e skips} everything already
    settled: kill -9 mid-run loses at most the in-flight shard, and the
    findings report of an interrupted-and-resumed campaign is
    byte-identical to an uninterrupted one (verdicts are deterministic
    and replayed from the store, never recomputed).

    The SC outcome set of each distinct loop-free program is enumerated
    at most once per run (one {!Wo_workload.Sweep.Key_tbl} memo) and
    not at all for cells the store already settles — which is why a
    warm resume is orders of magnitude faster than a cold run (bench
    E15).

    One internal settle step turns cells into verdicts: {!run} calls it
    per shard against the store, {!settle_all} once over a whole plan
    with no store ([wo sweep]).  Its parallelism is the [domains] of
    one process.

    Fresh cells share seed batches: cells whose programs agree and
    whose specs run that program identically
    ({!Wo_machines.Spec.run_key}) and make it the same SC promise are
    simulated once (see {!run}).

    Observability ({!Wo_obs} counters, when a recorder is active):
    [campaign.settled], [campaign.shared], [campaign.cache_hits],
    [campaign.shards]. *)

type config = {
  runs : int;  (** seeded runs per cell *)
  base_seed : int;
  domains : int option;  (** [None]: recommended count *)
  shard : int;  (** cells per work unit (store synced per shard) *)
  max_shards : int option;
      (** stop (cleanly) after this many shards — partial runs for
          tests and CI resume smokes *)
  store_path : string;
  auto_compact : float option;
      (** compact the store after the run when at least this fraction
          of its records are superseded duplicates; [None] never *)
}

val default_config : store_path:string -> config
(** 20 runs, seed 1, recommended domains, 64-cell shards, no limit,
    auto-compact at 50% dead. *)

type verdict = {
  v_ok : bool;  (** the spec's consistency promise held (or made none) *)
  v_expected_sc : bool;
  v_appears_sc : bool;
  v_violations : string list;  (** outcomes outside the SC set *)
  v_lemma1 : int;
  v_error : string option;  (** simulated machine error (deadlock, ...) *)
  v_witness : string option;
      (** one full trace of a violating run, captured when the verdict
          is a broken promise — stored, so resumes never re-simulate *)
}

val verdict_to_string : verdict -> string
val verdict_of_string : string -> (verdict, string) result

val catalogue_corpus : unit -> Wo_synth.Synth.corpus_entry list
(** The mutation corpus shared by every campaign: each loop-free
    catalogued litmus test.  Deterministic in the binary, so a resumed
    campaign regenerates the interrupted run's exact case list from
    its command line. *)

val litmus_of_case : Wo_synth.Synth.case -> Wo_litmus.Litmus.t
(** View a synthesized case as a runnable litmus test ([drf0] iff
    classified DRF0-by-construction, [loops] from the program). *)

val case_of_litmus : Wo_litmus.Litmus.t -> Wo_synth.Synth.case
(** A catalogued test as a case of family ["litmus"]: DRF0 by
    construction if the test is DRF0, racy by construction otherwise. *)

val evaluate :
  ?engine:Wo_machines.Machine.engine ->
  ?compiled:Wo_prog.Prog_compile.t ->
  runs:int ->
  base_seed:int ->
  sc_outcomes:Wo_prog.Outcome.t list option ->
  Wo_machines.Machine.t ->
  Wo_litmus.Litmus.t ->
  verdict
(** One cell's verdict: [runs] seeded runs, outcome comparison against
    [sc_outcomes] when given (loop-free tests), Lemma-1 oracle for DRF0
    tests, witness trace captured iff the promise broke (the first
    breaking seed, {!Wo_litmus.Runner.first_seed}).  Machine errors
    become failing verdicts, not exceptions.  The seed batch and the
    witness search run through the calling domain's reusable machine
    session ({!Wo_workload.Sweep.domain_session}); [compiled] passes the
    program's pre-compiled artifact.  [engine] selects nothing (see
    {!Wo_machines.Machine.engine}).  Deterministic in the cell
    arguments — the store replays these forever. *)

type finding = {
  f_case : string;
  f_family : string;
  f_class : string;
  f_machine : string;
  f_verdict : verdict;
}

type result = {
  r_total : int;  (** cells in the campaign (cases × specs) *)
  r_executed : int;
      (** cells settled by this run: simulated, or answered by another
          cell's seed batch in this run *)
  r_cache_hits : int;
      (** cells already settled in the store when the run opened it *)
  r_shards : int;  (** shards processed by this run *)
  r_stopped_early : bool;  (** [max_shards] cut the run short *)
  r_sc_sets : int;  (** SC outcome sets enumerated by this run *)
  r_findings : finding list;
      (** every broken contract among {e settled} cells, sorted by
          (case, machine) — empty is the healthy verdict *)
  r_store_records : int;  (** records in the store after the run *)
  r_compacted : Store.compact_stats option;
      (** set when the [auto_compact] threshold triggered a rewrite *)
}

val cell_key :
  program_payload:string -> spec_json:string -> runs:int -> base_seed:int ->
  string
(** The store key of one cell: length-prefixed concatenation of the
    program's canonical payload ({!Wo_workload.Sweep.program_key}), the
    spec's canonical JSON and the run batch — exposed so tests and
    benches key cells compatibly with the store. *)

type plan
(** The campaign's cell array: cells laid out case-major (every spec of
    a case next to each other), each keyed for the store.  A pure
    function of (config, specs, cases). *)

val plan :
  config ->
  specs:Wo_machines.Spec.t list ->
  cases:Wo_synth.Synth.case list ->
  plan

val plan_cells : plan -> int
(** Total cells (cases × specs). *)

val cell_store_key : plan -> int -> string
(** The store key of the cell at an index of the plan. *)

type settled = {
  s_verdicts : verdict array;  (** one per cell, in plan order *)
  s_sc : Wo_prog.Outcome.t list Wo_workload.Sweep.Key_tbl.t;
      (** the SC outcome set of every loop-free program, by
          {!Wo_workload.Sweep.program_key} *)
  s_sc_sets : int;  (** SC outcome sets enumerated *)
}

val settle_all : config -> plan -> settled
(** {!run}'s settle step over the whole plan at once, with no store;
    reads only [runs], [base_seed] and [domains] of the config.  Each
    verdict is the one {!run} would store for the cell; a machine error
    is a verdict with [v_error = Some _], not an exception. *)

val run :
  ?on_shard:(shard:int -> settled:int -> executed:int -> total:int -> unit) ->
  config ->
  specs:Wo_machines.Spec.t list ->
  cases:Wo_synth.Synth.case list ->
  result
(** Execute the campaign.  Cells are laid out case-major (every spec of
    a case lands in the same shard region) and partitioned into
    contiguous shards of [shard] cells; within a shard, unsettled cells
    run in parallel on [domains] ({!Wo_workload.Sweep.parallel_map})
    and their verdicts are appended and synced before the next shard
    starts.  Machine errors are caught per cell and recorded as failing
    verdicts, not crashes.  After a complete (not [max_shards]-stopped)
    run, the store is compacted if the [auto_compact] dead-record
    threshold is met.

    One {!evaluate} runs per {e run class}: the fresh cells of a shard
    with equal program payload, equal DRF0 flag, equal [expected_sc]
    (the one bit of the spec's flags a verdict reads) and equal
    {!Wo_machines.Spec.run_key} on the program's
    {!Wo_prog.Program.features}.  [plan] computes the features once
    per case and the key once per (spec, distinct features).  The
    class's verdict string is every member's, byte for byte what the
    member's own {!evaluate} would give: the members' runs agree in
    everything a verdict reads, and a machine's name (and its backend's
    diagnostic wording) reaches only [Machine_error] and watchdog text.
    So when the class's verdict carries an error ([v_error = Some _]),
    every other member runs its own batch and keeps its own message.
    Execution is grouped by spec so each domain's reusable machine
    session stays on one machine across consecutive cells; the grouping
    and the sharing are pure performance knobs, and the bytes depend on
    the cells alone.

    A store key that repeats (two cases with the same program) is
    written once; every cell still reports its own verdict.  A repeat
    in a later shard than the one that wrote the key counts as settled
    by this run ([r_executed]), not as a cache hit. *)

val run_with_shared :
  ?on_shard:(shard:int -> settled:int -> executed:int -> total:int -> unit) ->
  config ->
  specs:Wo_machines.Spec.t list ->
  cases:Wo_synth.Synth.case list ->
  result * int
(** {!run}, also returning how many of the cells it settled took their
    verdict from another cell's seed batch (see {!run}).  The count
    rides beside {!result} rather than in it, so code that builds a
    [result] record keeps compiling. *)

val findings_report : result -> string
(** Deterministic plain-text report (no timestamps, no wall-clock): the
    CI contract is that an interrupted+resumed campaign reproduces the
    uninterrupted report byte for byte. *)

val result_json :
  ?shared:int -> config -> result -> (string * Wo_obs.Json.t) list
(** Metrics payload fields for a [wo-metrics] document; [shared] (the
    count {!run_with_shared} returns) is emitted as ["shared"] after
    ["executed"] when given. *)
