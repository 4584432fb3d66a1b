(** Parallel sweep campaigns.

    The quantitative experiments run cartesian products — litmus tests ×
    machines × seeds, workloads × machines × seeds — where every cell is
    an independent deterministic simulation (every run resets its
    machine session's engine and reseeds its RNG from the seed).  This
    module fans the cells out across OCaml 5 [Domain]s and memoizes the
    expensive shared prefix: the SC outcome set of a litmus program, which is identical
    for every machine and seed and dominates the cost of small sweeps.

    Results are independent of the domain count: cells are pure
    functions of (test, machine, runs, base_seed), and the output keeps
    the input product order. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1. *)

val parallel_map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map with the calls spread over [min domains
    (length items)] domains (strided assignment; the calling domain is
    one of the workers).  [f] must be safe to call from multiple
    domains at once.  If any call raises, every domain is still joined
    and the failure of the lowest worker index is re-raised — the same
    exception surfaces for a fixed domain count. *)

type program_key = { pk_digest : Digest.t; pk_payload : string }
(** Structural identity of the parts of a program the SC outcome set
    depends on.  The digest accelerates comparison; equality always
    confirms on the full payload, so a digest collision cannot alias
    two distinct programs.  (The representation is exposed exactly so
    tests can forge a colliding digest and exercise that path.) *)

val program_key : Wo_prog.Program.t -> program_key

val program_key_art :
  Wo_prog.Program.t -> program_key * Wo_prog.Prog_compile.t option
(** {!program_key} plus the compiled artifact the key was derived from
    (when the program is compilable) — callers that both key and run a
    program get the single compilation the key already paid for. *)

val domain_session :
  Wo_machines.Machine.t ->
  Wo_machines.Machine.session
(** The calling domain's reusable session for this machine,
    created on first use and cached in domain-local storage — never
    shared across domains, so each worker drives its own machine state.
    Cached by machine name with a physical-identity check: a different
    machine value under the same name replaces the stale session. *)

val find_keyed : program_key -> (program_key * 'a) list -> 'a option
(** First binding whose key is {e fully} equal (digest and payload). *)

val key_tests :
  Wo_litmus.Litmus.t list -> (Wo_litmus.Litmus.t * program_key) list
(** One {!program_key} per test, each compiled canonical encoding built
    exactly once — thread the result through {!litmus_campaign_keyed} /
    {!spec_campaign} (and the campaign engine's persistent store) instead
    of re-deriving keys per phase. *)

(** {1 Litmus campaigns} *)

type litmus_cell = {
  test : Wo_litmus.Litmus.t;
  machine : Wo_machines.Machine.t;
  report : Wo_litmus.Runner.report;
  expected_sc : bool;
      (** the machine promises SC behaviour on this test: it is
          sequentially consistent outright, or weakly ordered and the
          test is DRF0 *)
  ok : bool;
      (** the promise holds: [not expected_sc || Runner.appears_sc] *)
}

type litmus_campaign = {
  cells : litmus_cell list;  (** in [tests × machines] product order *)
  domains_used : int;
  sc_sets : int;  (** distinct programs whose SC set was enumerated *)
  sc_reused : int;  (** cells that reused a memoized SC set *)
}

val litmus_campaign :
  ?runs:int ->
  ?base_seed:int ->
  ?domains:int ->
  machines:Wo_machines.Machine.t list ->
  Wo_litmus.Litmus.t list ->
  litmus_campaign
(** Run every test on every machine ([runs] seeded runs each, defaults
    as {!Wo_litmus.Runner.run}).  SC outcome sets are enumerated once
    per distinct program — in parallel — then shared read-only by all
    cells through a digest-indexed table (payload-confirmed, so a
    digest collision cannot alias two programs).  Cells run through
    per-domain machine sessions, with each test compiled once and the
    artifact shared across machines and seeds. *)

val litmus_campaign_keyed :
  ?runs:int ->
  ?base_seed:int ->
  ?domains:int ->
  machines:Wo_machines.Machine.t list ->
  (Wo_litmus.Litmus.t * program_key) list ->
  litmus_campaign
(** {!litmus_campaign} with the program keys supplied by the caller
    (see {!key_tests}): the canonical encoding behind each key is
    computed once and reused for SC memoization — and, in the campaign
    engine, for the persistent store key — instead of being re-digested
    per layer. *)

val spec_campaign :
  ?runs:int ->
  ?base_seed:int ->
  ?domains:int ->
  ?keyed:(Wo_litmus.Litmus.t * program_key) list ->
  specs:Wo_machines.Spec.t list ->
  Wo_litmus.Litmus.t list ->
  litmus_campaign
(** {!litmus_campaign} over machines defined as data: every spec is
    built with {!Wo_machines.Spec.build} and swept against every test.
    [keyed] (default: [key_tests tests]) supplies precomputed program
    keys.  Compose with {!Wo_machines.Spec.grid} to sweep a fabric ×
    sync-policy cross product of one base machine. *)

val failures : litmus_campaign -> litmus_cell list
(** Cells whose SC promise was broken (the CI contract: must be []). *)

(** {1 Workload campaigns} *)

type workload_cell = {
  workload : Workload.t;
  w_machine : Wo_machines.Machine.t;
  avg_cycles : int;
  invariant_failures : int;
      (** runs whose outcome failed the workload's validator *)
}

val workload_campaign :
  ?runs:int ->
  ?base_seed:int ->
  ?domains:int ->
  machines:Wo_machines.Machine.t list ->
  Workload.t list ->
  workload_cell list
(** Run every workload on every machine ([runs] defaults to 20),
    averaging cycle counts over seeds; in [workloads × machines]
    product order.  Each cell's seed loop runs through a per-domain
    machine session with the workload compiled once. *)
