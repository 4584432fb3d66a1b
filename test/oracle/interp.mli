(** The idealized architecture (Section 4), walked over the AST.

    "An abstract, idealized architecture where all memory accesses are
    executed atomically and in program order."  This interpreter executes a
    program under an arbitrary scheduler, one memory operation at a time;
    local register computation is folded into the following memory
    operation (local steps commute with everything, so this loses no
    behaviour).

    The oracle {!Wo_prog.Cinterp} is tested against: the same events,
    runnable sets and outcomes on the source program, and the same
    {!run_random} draws.  It shares {!Wo_prog.Cinterp}'s [access] record
    and [Local_divergence] exception, so the enumerator's independence
    test and the divergence handlers read either engine.

    States are persistent, so the enumerators can branch cheaply. *)

open Wo_prog

exception Local_divergence of Wo_core.Event.proc
(** {!Wo_prog.Cinterp.Local_divergence}: raised when a thread executes an
    unreasonable number of consecutive local steps without reaching a
    memory operation (a register-only infinite loop). *)

type state

val init : Program.t -> state

val runnable : state -> Wo_core.Event.proc list
(** Processors that have not finished. *)

val finished : state -> bool

val step : state -> Wo_core.Event.proc -> state * Wo_core.Event.t option
(** Advance the processor through local computation until it performs
    exactly one (atomic) memory operation, or finishes.  Returns the event
    performed, or [None] if the thread completed without touching memory.

    @raise Invalid_argument if the processor is not runnable. *)

type access = Cinterp.access = {
  loc : Wo_core.Event.loc;
  writes : bool;
  sync : bool;
}
(** Shape of a processor's pending memory operation: the location it will
    touch, whether it has a write component, and whether it is a
    synchronization operation. *)

val peek : state -> Wo_core.Event.proc -> access option
(** The memory access {!step} would perform for this processor, without
    committing anything, or [None] if the thread would finish without
    another memory operation.  Locations are static, so the answer for a
    processor is unchanged by other processors' steps — the property the
    partial-order-reduced enumerator's independence test relies on. *)

val memory : state -> (Wo_core.Event.loc * Wo_core.Event.value) list
(** Current memory contents over the program's locations, sorted. *)

val events_so_far : state -> int

type view = {
  v_envs : (Instr.reg * int) list array;
      (** per processor, register bindings sorted by register *)
  v_codes : Instr.t list array;  (** remaining code per processor *)
  v_memory : (Wo_core.Event.loc * Wo_core.Event.value) list;
      (** effective memory over the program's locations, sorted *)
  v_events : int;  (** memory events performed so far *)
}

val view : state -> view
(** A structural snapshot of everything the future behaviour of [state]
    depends on (plus the event count, which fixes the remaining
    [max_events] budget).  Two states with equal views generate
    identical subtrees of executions — what the AST oracle's state keys
    (the test-only [wo_oracle] library) encode. *)

val outcome : state -> Outcome.t
(** Outcome of a finished (or partial) state: observable registers plus
    memory. *)

val execution : state -> Wo_core.Execution.t
(** The idealized execution performed so far (events in execution order). *)

val run : sched:(state -> Wo_core.Event.proc option) -> Program.t -> state
(** Run to completion; [sched] picks among {!runnable} processors (returning
    [None] or a non-runnable processor falls back to the lowest runnable
    one). *)

val run_round_robin : Program.t -> state

val run_random : seed:int -> Program.t -> state
(** Uniform random scheduling from a deterministic seed. *)
