(** Model-aware reference exploration.

    {!Enumerate} answers "what can sequential consistency produce?";
    this module answers the same question for a relaxed hardware
    ordering model ({!Wo_core.Sync_model.hardware}): TSO, PSO or the
    release/acquire window model.  It searches an abstract operational
    machine in which per-processor store buffers are explicit state and
    draining one buffered write is a scheduling step, so the result is
    the model's exact allowed outcome set for a loop-free program.

    The search runs over the compiled program ({!Prog_compile}) with
    packed state keys in a {!Visited} table, folds each data write into
    its processor's buffer as soon as it is reached (an enqueue commutes
    with everything other processors do), and prunes with sleep sets
    over issue and drain steps.  None of these reductions drops an
    outcome.  Under a model with no relaxation the buffers stay empty
    and the answer is the stateful SC search
    ({!Enumerate.outcomes_stateful} on one domain).

    The simulated backends ({!Wo_machines.Ordering}) realize the same
    models with concrete timing; every outcome they can produce is in
    this set.  [wo difftest] checks that inclusion run by run, which is
    the racy-program half of the differential compliance harness (the
    DRF0 half is Definition 2: the allowed set is the SC set). *)

exception Too_many_states of int
(** Raised, carrying the [max_states] bound, when the search cannot
    finish within its bounds. *)

val outcomes :
  ?max_states:int ->
  Wo_core.Sync_model.hardware ->
  Program.t ->
  Outcome.t list
(** All outcomes the hardware model allows for the program, sorted by
    {!Outcome.compare}.  Under {!Wo_core.Sync_model.sc_hw} this equals
    {!Enumerate.outcomes_stateful}'s; each weaker model's set contains
    the stronger ones'.

    [max_states] (default 2,000,000) bounds the number of distinct
    states in the buffered search's visited table.  Those are states
    after eager settling, so the count is far below the number of
    raw interleaving states.
    @raise Invalid_argument on programs with loops.
    @raise Too_many_states when the bound is exceeded, when the SC
    search hits its event or execution bound, or when the program
    cannot be compiled ({!Prog_compile.compilable}: more than 65,535
    locations or registers). *)
