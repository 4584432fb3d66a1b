(** Search oracles for {!Wo_prog.Enumerate}, which runs one compiled,
    stateful, partial-order-reduced search per job.  Test-only: linked by
    the test suite and the experiments, never by lib/ or bin/.

    - Tree enumerators: [Naive] visits every interleaving (exponential
      by design); [Por] prunes with sleep sets, one execution per
      Mazurkiewicz trace.
    - DRF0 checkers over those trees: path-incremental ({!check_drf0})
      and closure-per-leaf ({!check_drf0_closure}).
    - One-domain stateful walks over {!Interp} keyed on
      {!State_key}: the twins of the compiled walks. *)

open Wo_prog

exception Limit_exceeded
(** Raised when a bound is hit by an enumerator with raising semantics:
    {!Enumerate.Limit_exceeded} itself (the implementation rebinds it). *)

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

(** {2 AST stateful walks} *)

val outcomes_stateful :
  ?strategy:strategy -> ?max_events:int -> ?max_executions:int ->
  Program.t -> Outcome.t list * Enumerate.stateful_stats
(** {!Enumerate.outcomes_stateful} on one domain over {!Interp} states
    keyed on {!State_key.exact}.  Same outcome set as {!outcomes} for
    either [strategy].  @raise Limit_exceeded as for {!executions}. *)

val check_drf0_stateful :
  ?strategy:strategy -> ?symmetry:bool ->
  ?max_events:int -> ?max_executions:int ->
  Program.t ->
  (unit, Wo_core.Drf0.report) result * Enumerate.stateful_stats
(** {!Enumerate.check_drf0_stateful} on one domain over {!Interp} states
    keyed on {!State_key.canonical}, under the DRF0 model.  Same verdict
    as {!check_drf0}, and under [Por] the same racy report.
    @raise Limit_exceeded as for {!executions}. *)

(** {2 Agreement}

    How the tests and experiments compare a search's results with an
    oracle's. *)

val outcome_sets_equal : Outcome.t list -> Outcome.t list -> bool
(** Equal sorted outcome lists. *)

val reports_agree :
  (unit, Wo_core.Drf0.report) result ->
  (unit, Wo_core.Drf0.report) result ->
  bool
(** Same verdict and, when racy, the same races in the same reported
    execution (the report's model is not compared). *)
