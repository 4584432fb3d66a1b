(** Sequential consistency (Lamport, Section 1).

    Hardware is sequentially consistent if the result of any execution is
    the same as if all processors' operations executed in some total order
    consistent with each processor's program order, with [result] meaning
    the union of values returned by reads plus the final state of memory.

    This module decides, for a finite execution (typically a machine trace),
    whether such a witness total order exists, and produces it when it
    does.  The search is exponential in the worst case and intended for
    litmus-scale inputs; whole-program SC appearance for larger workloads
    is checked by outcome-set comparison in [Wo_litmus].  Test-only: the
    suite checks machine traces and enumerated executions against it. *)

open Wo_core

type result = {
  read_values : (Event.proc * int * Event.value) list;
      (** (processor, program-order position, value returned) per read,
          sorted *)
  final : (Event.loc * Event.value) list;  (** final memory, sorted *)
}
(** The paper's notion of the result of an execution. *)

val result_of_execution : Execution.t -> result

val compare_result : result -> result -> int

val witness :
  ?init:(Event.loc -> Event.value) ->
  ?expected_final:(Event.loc * Event.value) list ->
  Event.t list list ->
  Event.t list option
(** [witness threads] searches for a total order of all events that is
    consistent with program order ([threads] lists each processor's events
    in program order) and in which every read returns the value of the most
    recent preceding write to its location ([init] for locations not yet
    written, default constant 0).  Read-write synchronization executes its
    two components atomically and consecutively.  If [expected_final] is
    given, the final memory must also match on those locations.  Returns
    the witness order, or [None] if the recorded read values (and final
    memory) are not sequentially consistent. *)

val is_sequentially_consistent :
  ?init:(Event.loc -> Event.value) -> Execution.t -> bool
(** Convenience: split the execution's events per processor (in program
    order), and check a witness exists that also reproduces the execution's
    final memory. *)
