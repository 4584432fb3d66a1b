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

type features = {
  sync_free : bool;
      (** no thread contains a synchronization instruction ([Sync_read],
          [Sync_write], [Test_and_set], [Fetch_and_add]); fences are not
          synchronization *)
  loop_free : bool;  (** no thread contains a [While] *)
  max_thread_writes : int;
      (** the most write instructions ([Write] or [Sync_write]) in any
          one thread, both arms of every [If] counted: a loop-free
          thread never has more writes outstanding *)
}

val features : t -> features
(** The static features that decide which machine knobs a program's
    runs can observe (the machine layer's run key reads them). *)

val has_loops : t -> bool
(** True if any thread contains a [While] — such programs may have
    unboundedly many idealized executions, so the enumerator needs bounds. *)

val pp : Format.formatter -> t -> unit
