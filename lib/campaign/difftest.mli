(** Differential compliance over the consistency-model zoo.

    Runs a corpus of cases (litmus tests plus synthesized programs) on
    each machine spec and checks every observed outcome against the
    strongest available oracle:

    - DRF0 loop-free cases against the SC set (Definition 2);
    - DRF0 loopy cases against the Lemma-1 trace oracle;
    - known-racy loop-free cases against the machine's own model's
      axiomatic set ({!Wo_prog.Relaxed.outcomes}) — weak outcomes are
      fine, outcomes the model itself forbids are not;
    - anything else is observed and reported without a verdict.

    A violating (case, machine) pair carries a witness: the seed, the
    outcome and the machine's full event trace. *)

type case = {
  cname : string;
  program : Wo_prog.Program.t;
  drf0 : bool;  (** trusted: checked against SC / Lemma 1 *)
  racy : bool;  (** trusted: checked against the model set *)
  loops : bool;
}

type check = Against_sc | Against_model | Lemma1_only | Report_only

type witness = {
  wseed : int;
  woutcome : Wo_prog.Outcome.t;
  wtrace : string;
}

type report = {
  rcase : case;
  rmachine : string;
  rmodel : string;  (** ["sc"], ["tso"], ["pso"], ["ra"] *)
  rruns : int;
  rcheck : check;
      (** [Against_model] downgrades to [Report_only] when the reference
          enumeration exceeds [max_states] *)
  allowed : int;
  distinct : int;
  beyond_sc : int;
      (** runs outside the SC set — the separator signal; only a
          violation when the case is checked against the SC set *)
  violations : (Wo_prog.Outcome.t * int) list;
  lemma1_failures : int;
  witness : witness option;
}

val compliant : report -> bool
(** No violations and no Lemma-1 failures. *)

type summary = {
  reports : report list;
  cases : int;
  machines : int;
  violating : report list;
}

val case_of_litmus : Wo_litmus.Litmus.t -> case
(** {!Campaign.case_of_litmus} as a difftest case: DRF0 tests are DRF0,
    the rest racy. *)

val default_cases : ?family:string -> ?count:int -> unit -> case list
(** The litmus corpus plus a deterministic synthesis batch
    ([family] defaults to ["cycle-racy"], [count] to [8]).
    @raise Invalid_argument on an unknown family. *)

val run :
  ?specs:Wo_machines.Spec.t list ->
  ?runs:int ->
  ?base_seed:int ->
  ?max_states:int ->
  ?engine:Wo_machines.Machine.engine ->
  ?witnesses:bool ->
  ?cases:case list ->
  unit ->
  summary
(** The harness.  [specs] defaults to {!Wo_machines.Presets.model_specs}
    (the relaxed zoo); [runs] (default 40) seeds per (case, machine);
    [witnesses] (default true) re-runs to attach a witness to each
    violating pair; [engine] selects nothing (see
    {!Wo_machines.Machine.engine}).  Reports are grouped machine by
    machine, in [specs] order, but the work runs case by case: a case's
    reference sets (its SC set and one axiomatic set per model) are
    computed once, shared by its machines, and dropped before the next
    case, so memory does not grow with the corpus. *)

val matrix : summary -> (string * (string * int) list) list
(** Per racy loop-free case: how many of each machine's runs fell
    outside the SC set.  Zero vs non-zero rows separate the models. *)

val report_to_json : report -> Wo_obs.Json.t
val summary_to_json : summary -> Wo_obs.Json.t
val pp_summary : Format.formatter -> summary -> unit
