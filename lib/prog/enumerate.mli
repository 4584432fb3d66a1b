(** Enumeration of idealized executions.

    DRF0 (Definition 3) quantifies over {e all} executions on the idealized
    architecture, and Definition 2's appears-SC test needs the full set of
    sequentially consistent outcomes.  This module answers both, one search
    per job, by depth-first search over the interleavings of a program's
    memory operations.  Local computation is not a branch point (it
    commutes), so the branching factor is the number of processors with a
    pending memory operation.

    Both searches run one walk over the {!Prog_compile}d program, executed
    by {!Cinterp}:

    - {b Partial-order reduction}: sleep-set pruning driven by a per-step
      independence test — two pending steps commute unless they touch the
      same location and either writes or both are synchronization
      operations (happens-before's [so] relates only same-location sync
      pairs, so syncs on different locations swap without changing hb).
      A processor whose pending access is on a location no other runnable
      processor can still reach ({!Prog_compile.live_locs}) is a
      persistent singleton: it is expanded alone, and a node whose
      singleton is asleep is not expanded at all.  The search therefore
      branches only where a value, an outcome or happens-before can
      change.  Outcome sets and DRF0 verdicts are invariant under
      commuting independent steps, so they equal those of the exhaustive
      tree.
    - {b Stateful}: the search {e tree} becomes a DAG — a visited table
      ({!Visited}) keyed on packed state encodings merges convergent
      schedules.  The outcome search keys on the exact state
      ({!Cinterp.exact_key}); the DRF0 quantifier keys on a canonical
      state read in place from the incremental checker
      ({!Cinterp.canonical_key}), quotiented by processor/location
      symmetry, and pushes/pops each edge's event on that checker.
    - {b Parallel}: [domains > 1] runs share a striped table under a
      work-stealing scheduler ({!Wsq}).  One-domain runs borrow the
      calling domain's spare table ({!Visited.borrow}) and hand it back
      cleared.

    The oracles these searches are tested against — the naive and POR
    tree enumerators, the closure and tree-incremental DRF0 checkers, and
    a twin of each stateful walk over the AST interpreter
    ([Wo_oracle.Interp]) with its own state keys — live in the test-only [wo_oracle] library
    ([test/oracle/]); no production code links it.

    Programs with loops can have unboundedly many executions — bound them
    with [max_events]. *)

exception Limit_exceeded
(** Raised when a search bound is hit, or when the program cannot be
    compiled ({!Prog_compile.compilable}). *)

type stateful_stats = {
  sf_states : int;  (** DAG nodes expanded (tree re-expansions merged away) *)
  sf_distinct : int;  (** distinct states in the visited table *)
  sf_hits : int;  (** visited-table hits — subtrees pruned by dedup *)
  sf_executions : int;  (** complete executions reached *)
  sf_steals : int;  (** successful work-steals (parallel runs) *)
  sf_per_domain : int array;  (** DAG nodes expanded per domain *)
}

val outcomes_stateful :
  ?max_events:int -> ?max_executions:int ->
  ?domains:int -> Program.t -> Outcome.t list * stateful_stats
(** Distinct sequentially consistent outcomes, sorted.  States are claimed
    in a visited table keyed on exact snapshots ({!Cinterp.exact_key}),
    so schedules converging on the same state expand it once; outcome
    collection commutes with dedup (a pruned subtree's outcomes were all
    reached from the first visit), so the set does not depend on
    [domains].  [max_events] (default 64) bounds the length of a single
    execution; [max_executions] (default 1_000_000) bounds the number of
    complete executions reached, globally across domains.  [domains]
    defaults to one less than the recommended domain count; [1] runs on
    the calling domain.
    @raise Limit_exceeded past a bound or on an uncompilable program. *)

val check_drf0_stateful :
  ?symmetry:bool ->
  ?max_events:int -> ?max_executions:int ->
  ?domains:int -> Program.t ->
  (unit, Wo_core.Drf0.report) result * stateful_stats
(** Definition 3: the program obeys DRF0 iff every idealized execution is
    race-free.  A vector-clock checker ({!Wo_core.Drf0_inc}) rides the
    walk and stops it at the event that creates the first race; the
    racy prefix is completed and checked with {!Wo_core.Drf0.check}, so
    [Error] carries a full report.

    The visited table is keyed on canonical encodings
    ({!Cinterp.canonical_key}) — interpreter state plus the checker's
    happens-before metadata — quotiented by the isomorphisms the verdict
    cannot observe: location renaming, permutation of symmetric
    processors ([symmetry], default [true]; Dekker-style mirrored
    programs collapse onto one orbit representative), and per-coordinate
    rank compression of the clocks.  On racy programs the report is
    deterministic and equals the tree search's: persistent singletons and
    parallel workers change which racy prefix is met first, so a racy
    verdict is re-searched once, on one domain and without persistent
    singletons — a walk that visits children in tree order and so finds
    the tree search's first racy prefix (pruned subtrees are race-free).
    The returned counters are that re-search's.  Bounds and [domains] as
    for {!outcomes_stateful}.
    @raise Limit_exceeded past a bound or on an uncompilable program. *)

(** {2 Shim for the E19 trace} *)

type stats = {
  executions : int;  (** complete executions reached *)
  states : int;  (** DAG nodes expanded *)
  truncated : bool;  (** always [false]: bounds raise *)
}

val outcomes_with_stats :
  ?max_events:int -> ?max_executions:int ->
  Program.t -> Outcome.t list * stats
(** {!outcomes_stateful} on one domain, with [states = sf_states] and
    [executions = sf_executions].  Kept for the E19 trace
    ([bench/e2e/workloads.ml]).  @raise Limit_exceeded as for
    {!outcomes_stateful}. *)
