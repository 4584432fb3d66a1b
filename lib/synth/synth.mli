(** The one seeded litmus-generation surface.

    Every generated program in the repository comes out of this module:
    structured synthesis from critical cycles ({!Cycle}), mutation of an
    existing corpus ({!Mutate}), and the two legacy random families
    (lock-disciplined and racy).  Generation is {e deterministic}: a
    (family, seed) pair always produces the same program, down to the
    canonical byte encoding — the campaign engine's persistent store
    keys depend on it.

    Each case is classified {e up front}:

    - [Drf0_by_construction]: every conflicting access pair is
      synchronization (all-sync cycles) or protected by a lock
      discipline — a weakly ordered machine must appear SC on it;
    - [Racy_by_construction]: a data race is guaranteed — the negative
      control, where weak machines should (and do) leave the SC set;
    - [Unknown]: mixed-sync cycles and most mutants — classify with
      [Enumerate.check_drf0_stateful] if the campaign needs to know.

    The test suite cross-checks samples of the first two classes
    against the exhaustive checker. *)

type classification = Drf0_by_construction | Racy_by_construction | Unknown

val classification_name : classification -> string
(** ["drf0"], ["racy"], ["unknown"]. *)

type case = {
  name : string;  (** unique per (family, seed) *)
  family : string;
  seed : int;
  program : Wo_prog.Program.t;
  classification : classification;
  forbidden : (Wo_prog.Outcome.t -> bool) option;
      (** cycle families: the outcome witnessing the cycle, never
          produced by any SC execution *)
  forbidden_desc : string option;
}

type corpus_entry = {
  base_name : string;
  base_program : Wo_prog.Program.t;
  base_drf0 : bool;
}
(** A mutation seed program.  The CLI feeds the loop-free litmus
    catalogue in; any caller-supplied corpus works. *)

val families : string list
(** ["cycle-drf0"; "cycle-racy"; "cycle-mixed"; "mutate";
    "lock-disciplined"; "racy"]. *)

val generate :
  ?corpus:corpus_entry list ->
  family:string ->
  seed:int ->
  unit ->
  (case, string) result
(** One deterministic case.  Errors on an unknown family, or on
    ["mutate"] with an empty corpus. *)

val batch :
  ?corpus:corpus_entry list ->
  family:string ->
  base_seed:int ->
  count:int ->
  unit ->
  (case list, string) result
(** [generate] over seeds [base_seed .. base_seed+count-1].  Emits the
    [synth.generated] observability counter when a recorder is
    active. *)

(** {2 The legacy families} *)

val lock_disciplined :
  seed:int ->
  ?procs:int ->
  ?sections_per_proc:int ->
  ?ops_per_section:int ->
  ?shared_locs:int ->
  ?locks:int ->
  unit ->
  Wo_prog.Program.t

val racy :
  seed:int ->
  ?procs:int ->
  ?ops_per_proc:int ->
  ?locs:int ->
  unit ->
  Wo_prog.Program.t
