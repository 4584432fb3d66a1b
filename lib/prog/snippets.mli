(** Reusable synchronization idioms, built from the hardware primitives.

    Section 4 notes that "a programmer is free to build and use higher
    level, more complex synchronization operations" as long as they use
    the primitives appropriately — these are those higher-level
    operations.  Programs composed from them are data-race-free by
    construction when shared data is only touched inside critical
    sections or between the correct sides of a barrier/handoff. *)

val acquire_tas : lock:Wo_core.Event.loc -> scratch:Instr.reg -> Instr.t list
(** Spin lock acquire with bare TestAndSet: retry until the old value is 0.
    Every iteration is a read-write synchronization operation. *)

val release : lock:Wo_core.Event.loc -> Instr.t list
(** [Unset]: a write-only synchronization operation storing 0. *)

val critical_section :
  lock:Wo_core.Event.loc ->
  scratch:Instr.reg ->
  ?use_ttas:bool ->
  ?scratch2:Instr.reg ->
  Instr.t list ->
  Instr.t list
(** Wrap a body in acquire/release ([use_ttas] defaults to false). *)

val barrier_wait :
  counter:Wo_core.Event.loc ->
  participants:int ->
  scratch:Instr.reg ->
  spin:Instr.reg ->
  Instr.t list
(** Single-use counting barrier: atomically increment the counter
    (FetchAndAdd), then spin with read-only synchronization until every
    participant has arrived — "spinning on a barrier count" (Section 6). *)

val local_work : int -> Instr.t list
(** [n] cycles of local computation (the "other work" of Figure 3). *)
