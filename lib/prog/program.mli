(** Multi-threaded programs.

    A program is one instruction list per processor plus initial memory
    contents.  [observable] restricts which registers participate in the
    outcome used for sequential-consistency comparison — scratch registers
    (e.g. spin-loop counters) whose final value legitimately depends on
    timing should be excluded. *)

type t = {
  name : string;
  threads : Instr.t list array;
  initial : (Wo_core.Event.loc * Wo_core.Event.value) list;
      (** locations not listed start at 0 *)
  observable : (Wo_core.Event.proc * Instr.reg) list option;
      (** [None]: all registers are observable *)
}

val make :
  ?name:string ->
  ?initial:(Wo_core.Event.loc * Wo_core.Event.value) list ->
  ?observable:(Wo_core.Event.proc * Instr.reg) list ->
  Instr.t list list ->
  t

val num_procs : t -> int

val max_procs : int
(** The most processors a program may have to be enumerated or compiled:
    sleep sets and the visited table's claim entries are machine-word
    bitsets with one bit per processor. *)

val locs : t -> Wo_core.Event.loc list
(** Locations mentioned by any thread or initialized, sorted. *)

val initial_value : t -> Wo_core.Event.loc -> Wo_core.Event.value

val has_loops : t -> bool
(** True if any thread contains a [While] — such programs may have
    unboundedly many idealized executions, so the enumerator needs bounds. *)

val pp : Format.formatter -> t -> unit
