(** The litmus harness: run a test many times on a machine and compare the
    observed outcomes against the sequentially consistent set.

    For loop-free tests the SC set comes from exhaustive enumeration on
    the idealized architecture, so [violations] is exact (Definition 2
    falsification).  For tests with spin loops the SC set cannot be
    enumerated; the harness instead applies the Lemma-1 oracle to each
    trace when the test is DRF0, and only tallies the test's named
    predicates otherwise. *)

type report = {
  test : Litmus.t;
  machine : string;
  runs : int;
  sc_outcomes : Wo_prog.Outcome.t list;
      (** empty when the test has loops *)
  histogram : (Wo_prog.Outcome.t * int) list;
      (** distinct observed outcomes with multiplicity, most frequent
          first *)
  violations : (Wo_prog.Outcome.t * int) list;
      (** observed outcomes outside the SC set (loop-free tests only) *)
  lemma1_failures : int;
      (** traces failing the Lemma-1 condition (DRF0 tests only) *)
  interesting_counts : (string * int) list;
  total_cycles : int;
  sc_coverage : int;
      (** how many distinct SC outcomes were actually observed — a machine
          that always executes one interleaving appears SC trivially, so
          coverage qualifies the verdict (0 when the test has loops) *)
}

val run :
  ?runs:int -> ?base_seed:int -> ?check_lemma1:bool ->
  ?sc_outcomes:Wo_prog.Outcome.t list ->
  ?session:Wo_machines.Machine.session ->
  ?compiled:Wo_prog.Prog_compile.t ->
  Wo_machines.Machine.t -> Litmus.t -> report
(** [runs] defaults to 100, seeds are [base_seed..base_seed+runs-1]
    (default 1).  [check_lemma1] (default: the test's [drf0] flag) applies
    the Lemma-1 oracle to every trace; a run whose result is physically
    the previous run's (a session replay) counts that run's verdict
    again without re-checking.  Without [sc_outcomes] a loop-free
    test's SC set comes from {!Wo_prog.Enumerate.outcomes_stateful} on one
    domain; [sc_outcomes] supplies a precomputed set instead, skipping the
    enumeration — the campaign memoizes one set per distinct program
    and shares it across every machine/seed combination.  All seeds run
    through one machine session — [session] to share across calls
    (it must belong to this machine) — and [compiled] passes the test
    program's pre-compiled artifact. *)

val appears_sc : report -> bool
(** No violations and no Lemma-1 failures. *)

val first_seed :
  Wo_machines.Machine.session ->
  compiled:Wo_prog.Prog_compile.t option ->
  base_seed:int ->
  runs:int ->
  Wo_prog.Program.t ->
  (Wo_machines.Machine.result -> bool) ->
  (int * Wo_machines.Machine.result) option
(** The first seed of [base_seed..base_seed+runs-1] whose session run
    satisfies the predicate, with that run's result: the witness search
    behind a broken verdict (session runs equal fresh runs). *)

val pp_report : Format.formatter -> report -> unit
