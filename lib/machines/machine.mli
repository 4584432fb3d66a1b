(** The common machine interface.

    Every simulated system — the four Figure-1 configurations, the
    sequentially consistent baseline, Definition-1 hardware and the
    paper's Section-5.3 implementation — runs a {!Wo_prog.Program} to
    completion and produces the same shape of result, so the litmus
    harness, the Definition-2 compliance tests and the benchmarks are
    machine-agnostic. *)

exception Machine_error of string
(** Deadlock or protocol failure; carries diagnostics. *)

type result = {
  outcome : Wo_prog.Outcome.t;
  trace : Wo_sim.Trace.t;
  cycles : int;
      (** engine time when all activity (including trailing
          acknowledgements) drained *)
  proc_finish : int array;
      (** per-processor time of executing its last instruction *)
  counters : Wo_sim.Stats.t;
      (** the machine's own counters (messages, cache hits, model
          buffer events, ...), a snapshot *)
  stalls : Wo_obs.Stall.t;
      (** typed per-processor per-reason stall-cycle attribution; the
          source of truth {!stall}, {!total_stalls} and {!proc_stalls}
          read *)
  taps : Wo_obs.Tap.t;
      (** per-protocol-message-type counts and transit-latency
          histograms *)
}

type engine = Compiled
(** The one way a session executes thread code: stepping the int-coded
    {!Wo_prog.Prog_compile} artifact.  The constructor selects nothing;
    it stays only because the frozen E19 benchmark ([bench/e2e/]) still
    passes it to {!new_session}, [Campaign.evaluate] and [Difftest.run].
    ROADMAP item 1's benchmark PR deletes it. *)

type session = {
  session_machine : string;  (** owning machine's name *)
  session_run :
    seed:int -> ?compiled:Wo_prog.Prog_compile.t -> Wo_prog.Program.t -> result;
}
(** A reusable execution context: the memory system, interconnect and
    frontends are built once and reset in place between runs, so a batch
    of seeds (or of programs on the same machine shape) avoids
    per-run construction entirely.  Every run — the first included —
    starts from the same in-place reset, so a reused session's results
    are byte-identical ([Marshal]-fingerprint-equal) to a fresh
    session's ({!run}) at every seed.
    A session may return the same physical result for several seeds
    (a replayed run, see {!Driver.make}); results are immutable
    by contract, so a caller must never mutate one it was handed.
    [compiled] supplies a pre-compiled artifact for the program (e.g. a
    campaign's memoised compilation); without it the session compiles
    on first binding and reuses the artifact while the same program
    stays bound.  A program beyond {!Wo_prog.Prog_compile.compilable}
    raises {!Machine_error} naming the bound it exceeds. *)

type t = {
  name : string;
  description : string;
  sequentially_consistent : bool;
      (** whether this machine is expected to appear SC to {e all}
          programs (used by tests as the expectation, never by the
          machines themselves) *)
  weakly_ordered_drf0 : bool;
      (** whether this machine is expected to appear SC to DRF0 programs *)
  new_session : unit -> session;  (** build a fresh session *)
}

val run : t -> ?seed:int -> Wo_prog.Program.t -> result
(** One run ([seed] defaults to 0): the first run of a freshly built
    session. *)

val new_session : t -> engine -> session

val session_run :
  session ->
  ?seed:int ->
  ?compiled:Wo_prog.Prog_compile.t ->
  Wo_prog.Program.t ->
  result
(** [seed] defaults to 0. *)

(** {2 Run accounting}

    Process-wide counters (atomic — sweep workers run machines on
    several domains): total delivered machine results (simulated or
    replayed), runs that reused a session's built state, and session
    runs answered by replaying a seed-invariant earlier result instead
    of simulating. *)

val note_run : unit -> unit
val note_session_reuse : unit -> unit
val note_session_replay : unit -> unit
val runs : unit -> int
val session_reuses : unit -> int
val session_replays : unit -> int

val emit_counters : unit -> unit
(** Emit [machine.runs] / [machine.session_reuse] /
    [machine.session_replays] to the active recorder, if enabled. *)

val compile : name:string -> Wo_prog.Program.t -> Wo_prog.Prog_compile.t
(** {!Wo_prog.Prog_compile.compile}, for machine [name].
    @raise Machine_error naming the packing bound an uncompilable
    program exceeds. *)

val stats : result -> (string * int) list
(** The legacy flat statistics view, derived on demand: the machine's
    own [counters] ({!Wo_sim.Stats.to_list}), then the
    [P<i>.stall.<reason>] / [stall.total] entries of [stalls]
    ({!Wo_obs.Stall.to_stats}), then the [msg.<type>] counts of [taps]
    ({!Wo_obs.Tap.to_stats}).  A run pays for none of it unless a
    caller asks. *)

val check_lemma1 :
  ?init:(Wo_core.Event.loc -> Wo_core.Event.value) ->
  result ->
  (unit, Wo_core.Lemma1.violation list) Stdlib.result
(** Check the Lemma-1 condition against the trace: happens-before from
    program order plus synchronization-commit order, every read returning
    its hb-last write.  Meaningful for DRF0 programs on machines claiming
    weak ordering. *)

val total_stalls : result -> int
(** All attributed stall cycles. *)

val stall : result -> proc:int -> string -> int
(** [stall r ~proc reason] reads one account by its
    {!Wo_obs.Stall.reason_name} key (e.g. ["release_gate"]); unknown
    names read 0. *)

val proc_stalls : result -> proc:int -> int
(** All stall cycles attributed to one processor. *)
