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
    at most once per process (in-run memoization, {!Wo_workload.Sweep}
    style) and not at all for cells the store already settles — which is
    why a warm resume is orders of magnitude faster than a cold run
    (bench E15).

    The building blocks — {!plan}, {!memo}, {!settle} — are exposed so
    the multi-process {!Coordinator} can drive the same cells from
    worker processes: the plan's shard partition is a pure function of
    (cases, specs, shard size), and verdicts are deterministic in the
    cell, so any process settling any shard contributes the same bytes.

    Observability ({!Wo_obs} counters, when a recorder is active):
    [campaign.settled], [campaign.cache_hits], [campaign.shards]. *)

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
    catalogued litmus test.  Deterministic in the binary — a worker
    process regenerates a coordinator's exact case list from manifest
    parameters alone. *)

val litmus_of_case : Wo_synth.Synth.case -> Wo_litmus.Litmus.t
(** View a synthesized case as a runnable litmus test ([drf0] iff
    classified DRF0-by-construction, [loops] from the program). *)

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
    tests, witness trace captured iff the promise broke.  Machine errors
    become failing verdicts, not exceptions.  The seed batch runs
    through the calling domain's reusable machine session
    ({!Wo_workload.Sweep.domain_session}) under [engine] (default
    [Compiled]); [compiled] passes the program's pre-compiled artifact.
    Deterministic in the cell arguments and independent of [engine] —
    the store replays these forever. *)

type finding = {
  f_case : string;
  f_family : string;
  f_class : string;
  f_machine : string;
  f_verdict : verdict;
}

type result = {
  r_total : int;  (** cells in the campaign (cases × specs) *)
  r_executed : int;  (** cells simulated by this run *)
  r_cache_hits : int;  (** cells already settled in the store *)
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

(** {2 Building blocks (shared with {!Coordinator})} *)

type plan
(** The campaign's cell array and shard partition: cells laid out
    case-major, shards as contiguous index ranges.  A pure function of
    (config, specs, cases) — every process building the same plan
    agrees on which cells shard [i] holds. *)

val plan :
  config ->
  specs:Wo_machines.Spec.t list ->
  cases:Wo_synth.Synth.case list ->
  plan

val plan_cells : plan -> int
(** Total cells (cases × specs). *)

val plan_shards : plan -> int
(** Number of shards (⌈cells / shard size⌉). *)

val shard_indices : plan -> int -> int list
(** The cell indices of one shard (empty past the end). *)

val cell_store_key : plan -> int -> string

type memo
(** The in-run SC-outcome memoization table; one memo outlives many
    shards (and in a worker, many claims). *)

val memo_create : unit -> memo
val memo_sc_sets : memo -> int

val config_domains : config -> int
(** The effective domain count ([domains], or the recommended count). *)

val settle :
  ?engine:Wo_machines.Machine.engine ->
  memo -> domains:int -> config -> plan -> int list -> (int * string) list
(** Settle the given (fresh) cell indices: enumerate any missing SC
    sets, evaluate in parallel, return [(index, verdict string)] pairs
    in input order.  Execution is grouped by spec so each worker
    domain's reusable machine session stays on one machine across
    consecutive cells, and each case's compiled artifact (built once by
    {!plan} for the store key) is shared across every spec and seed.
    Deterministic in the cells alone — [engine] (default [Compiled])
    and the grouping are pure performance knobs; any process settling
    the same cell produces the same bytes. *)

val run :
  ?engine:Wo_machines.Machine.engine ->
  ?on_shard:(shard:int -> settled:int -> executed:int -> total:int -> unit) ->
  config ->
  specs:Wo_machines.Spec.t list ->
  cases:Wo_synth.Synth.case list ->
  result
(** Execute the campaign.  Cells are laid out case-major (every spec of
    a case lands in the same shard region); within a shard, unsettled
    cells run in parallel ({!Wo_workload.Sweep.parallel_map}) and their
    verdicts are appended and synced before the next shard starts.
    Machine errors are caught per cell and recorded as failing
    verdicts, not crashes.  After a complete (not [max_shards]-stopped)
    run, the store is compacted if the [auto_compact] dead-record
    threshold is met. *)

val findings_report : result -> string
(** Deterministic plain-text report (no timestamps, no wall-clock): the
    CI contract is that an interrupted+resumed campaign reproduces the
    uninterrupted report byte for byte. *)

val result_json : config -> result -> (string * Wo_obs.Json.t) list
(** Metrics payload fields for a [wo-metrics] document. *)
