(** Enumeration of idealized executions.

    DRF0 (Definition 3) quantifies over {e all} executions on the idealized
    architecture, and Definition 2's appears-SC test needs the full set of
    sequentially consistent outcomes.  This module enumerates the
    interleavings of a program's memory operations by depth-first search
    over scheduling choices.  Local computation is not a branch point
    (it commutes), so the branching factor is the number of processors with
    a pending memory operation.

    Three enumerators, of increasing aggression:

    - {b Naive} ({!executions}, [~strategy:Naive]): every interleaving,
      once.  Exponential, by design; the oracle the others are tested
      against.
    - {b Partial-order reduction} ({!executions_por}, the default
      [~strategy:Por]): sleep-set pruning driven by a per-step independence
      test — two pending steps commute unless they touch the same location
      with a write or either is a synchronization operation.  Explores one
      representative per Mazurkiewicz trace; outcome sets and DRF0 verdicts
      are identical to the naive enumerator because both are invariant
      under commuting independent steps.
    - {b Stateful} ({!outcomes_stateful}, {!check_drf0_stateful}): the
      search {e tree} becomes a DAG — a visited table keyed on canonical
      state encodings ({!State_key}) merges convergent schedules, the DRF0
      quantifier additionally quotients by processor/location symmetry, and
      [domains > 1] runs share the table under a work-stealing scheduler
      ({!Wsq}).  This is the production path for Definition 3 and for SC
      outcome sets; the tree enumerators stay as its oracles.  The
      compiled DRF0 walk reads its key straight from the incremental
      checker ({!Cinterp.canonical_key}, working memory made once per
      walk); a table only one domain touches has one lock stripe.

    Programs with loops can have unboundedly many executions — bound them
    with [max_events] and check [truncated]. *)

exception Limit_exceeded
(** Raised when a bound is hit by an enumerator with raising semantics. *)

type strategy =
  | Naive  (** every interleaving — the exhaustive oracle *)
  | Por  (** sleep-set partial-order reduction — same outcomes, fewer states *)

type stats = {
  executions : int;  (** number of complete executions enumerated *)
  states : int;  (** search-tree nodes visited (the pruning metric) *)
  truncated : bool;  (** a bound stopped the enumeration *)
}

val executions :
  ?max_events:int -> ?max_executions:int -> Program.t ->
  Wo_core.Execution.t Seq.t
(** All idealized executions, lazily, one per interleaving.  [max_events]
    (default 64) bounds the length of a single execution; [max_executions]
    (default 1_000_000) bounds their number.  @raise Limit_exceeded when
    forcing the sequence past a bound. *)

val executions_por :
  ?max_events:int -> ?max_executions:int -> Program.t ->
  Wo_core.Execution.t Seq.t
(** One representative execution per Mazurkiewicz trace, lazily, under
    sleep-set partial-order reduction.  @raise Limit_exceeded as for
    {!executions}. *)

val outcomes :
  ?strategy:strategy -> ?max_events:int -> ?max_executions:int ->
  Program.t -> Outcome.t list
(** Distinct sequentially consistent outcomes, sorted.  The default
    [Por] strategy produces exactly the same set as [Naive].
    @raise Limit_exceeded as for {!executions}. *)

val outcomes_with_stats :
  ?strategy:strategy -> ?max_events:int -> ?max_executions:int ->
  Program.t -> Outcome.t list * stats
(** Like {!outcomes} but bounds truncate instead of raising, and the
    search-effort counters are returned. *)

val check_drf0 :
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?max_events:int -> ?max_executions:int ->
  Program.t ->
  (unit, Wo_core.Drf0.report) result
(** Definition 3: the program obeys the model iff every idealized execution
    is race-free.  Returns a racy execution's report otherwise (under [Por],
    the representative of the racy trace; a program is racy under [Por] iff
    it is racy under [Naive]).

    For the built-in {!Wo_core.Sync_model.drf0} and
    {!Wo_core.Sync_model.drf1} models the check is {e path-incremental}:
    a vector-clock checker ({!Wo_core.Drf0_inc}) rides the DFS, detects a
    race at the event that creates it, and prunes the whole subtree below
    the racy prefix — no per-execution closure is built.  Racy programs
    still get a full closure-based report for the completed racy
    execution.  Custom models fall back to {!check_drf0_closure}.
    @raise Limit_exceeded as for {!executions}. *)

val check_drf0_with_stats :
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?max_events:int -> ?max_executions:int ->
  Program.t ->
  (unit, Wo_core.Drf0.report) result * stats
(** {!check_drf0} with the search-effort counters ([states] counts DFS
    nodes visited; with incremental checking a racy program visits only
    the nodes up to its first racy prefix). *)

val check_drf0_closure :
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?max_events:int -> ?max_executions:int ->
  Program.t ->
  (unit, Wo_core.Drf0.report) result
(** The closure-based oracle: same DFS, but every complete execution is
    checked with {!Wo_core.Drf0.check} (O(n{^ 3}) closure per leaf) and no
    subtree is pruned early.  Same verdict as {!check_drf0}; retained for
    property tests and the E11 bench.  @raise Limit_exceeded as for
    {!executions}. *)

val check_drf0_closure_with_stats :
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?max_events:int -> ?max_executions:int ->
  Program.t ->
  (unit, Wo_core.Drf0.report) result * stats
(** {!check_drf0_closure} with search-effort counters. *)

(** {2 Stateful (DAG) exploration} *)

type engine =
  | Compiled
      (** execute the {!Prog_compile}d program with {!Cinterp} and key
          the visited table on packed int encodings — the default hot
          path.  Programs the compiler cannot lower (see
          {!Prog_compile.compilable}) fall back to [Ast]
          automatically, so the choice never changes observable
          results. *)
  | Ast  (** the persistent {!Interp} with {!State_key} encodings — the
             oracle the compiled path is differentially tested against *)

type stateful_stats = {
  sf_states : int;  (** DAG nodes expanded (tree re-expansions merged away) *)
  sf_distinct : int;  (** distinct states in the visited table *)
  sf_hits : int;  (** visited-table hits — subtrees pruned by dedup *)
  sf_executions : int;  (** complete executions reached *)
  sf_steals : int;  (** successful work-steals (parallel runs) *)
  sf_per_domain : int array;  (** DAG nodes expanded per domain *)
}

val outcomes_stateful :
  ?engine:engine ->
  ?strategy:strategy -> ?max_events:int -> ?max_executions:int ->
  ?domains:int -> Program.t -> Outcome.t list * stateful_stats
(** {!outcomes} as a DAG search: states are claimed in a visited table
    keyed on exact structural snapshots ({!State_key.exact} for [Ast],
    {!Cinterp.exact_key} for the default [Compiled]), so schedules
    converging on the same state expand it once.  The outcome set is
    identical to {!outcomes} for every [engine], [strategy] and [domains] value
    (outcome collection commutes with dedup: a pruned subtree's outcomes
    were all reached from the first visit).  [domains > 1] explores under a
    work-stealing scheduler with a shared sharded table; [max_executions]
    is a global bound, not per-domain.  @raise Limit_exceeded as for
    {!executions}. *)

val check_drf0_stateful :
  ?engine:engine ->
  ?strategy:strategy ->
  ?model:Wo_core.Sync_model.t ->
  ?symmetry:bool ->
  ?max_events:int -> ?max_executions:int ->
  ?domains:int -> Program.t ->
  (unit, Wo_core.Drf0.report) result * stateful_stats
(** Definition 3 as a DAG search.  The visited table is keyed on
    canonical encodings ({!State_key.canonical} for [Ast],
    {!Cinterp.canonical_key} for the default [Compiled]) — interpreter
    state plus the incremental checker's happens-before metadata (a
    {!Wo_core.Drf0_inc.summary} for [Ast], read in place for
    [Compiled]; the key bytes are the same), quotiented by the
    isomorphisms the verdict cannot observe: location renaming, permutation
    of symmetric processors ([symmetry], default [true]; Dekker-style
    mirrored programs collapse onto one orbit representative), and
    per-coordinate rank compression of the clocks.  The verdict always
    equals {!check_drf0}'s; on racy programs the report is identical too —
    sequential walks visit children in tree order so the same first racy
    prefix is found (pruned subtrees are race-free), and parallel walks
    re-search sequentially once a race is known, so the report is
    deterministic across [domains].  Custom models (no incremental mode)
    fall back to the closure tree oracle.  [max_executions] is a global
    bound.  @raise Limit_exceeded as for {!executions}. *)
