(** Shared processor front-end.

    Steps one thread of a {!Wo_prog.Prog_compile} artifact — dense
    int-array registers, stride-4 opcode decoding, no list traversal and
    no closure allocation for known RMW forms — executing local
    computation at a configurable cost per instruction and handing every
    memory operation to the owning machine.  The machine decides when the
    processor may proceed (this is exactly where the ordering policies
    differ) by calling {!resume}; until then the front-end is blocked.

    Unconditional jumps (the join after an [If], the back edge of a
    [While]) are resolved for free, mirroring an AST walk's costless list
    concatenation.  The test-only [Wo_oracle.Ast_frontend] is that AST
    walk, with this module's {!create}/{!start}/{!resume}/{!registers}
    contract; the two are lockstep-tested on the same engine schedule
    (equal request streams, registers and finish times).

    Expressions are evaluated at issue time, which is sound because the
    front-end never runs ahead of an operation whose result a later
    expression needs (reads block until the machine supplies the value). *)

type memory_op = {
  kind : Wo_core.Event.kind;
  loc : Wo_core.Event.loc;
  payload :
    [ `Read | `Write of Wo_core.Event.value | `Rmw of Wo_core.Event.rmw ];
  dest : Wo_prog.Instr.reg option;
      (** register receiving the read value: the flat register index,
          opaque to the machine *)
  seq : int;  (** program-order position of this operation *)
}

type request =
  | Access of memory_op
  | Fence
      (** the machine must not resume the processor until all its previous
          accesses are globally performed; fences produce no trace event *)

type t

val create :
  engine:Wo_sim.Engine.t ->
  proc:Wo_core.Event.proc ->
  compiled:Wo_prog.Prog_compile.t ->
  ?local_cost:int ->
  perform:(request -> unit) ->
  on_finish:(unit -> unit) ->
  unit ->
  t
(** A frontend for thread [proc] of [compiled].  [local_cost] (default
    1; machine specs require at least 1) is the cycles charged per local
    instruction and per memory-operation issue.  [perform] receives each
    memory operation; the machine must eventually call {!resume}.
    [on_finish] fires once, when the thread's last instruction has
    completed. *)

val reset : t -> unit
(** Rewind to the start of the bound program: registers zeroed, sequence
    counter zeroed, status back to the initial (blocked) state.  The next
    {!start} replays the thread exactly as after {!create}. *)

val rebind : t -> Wo_prog.Prog_compile.t -> unit
(** Bind a different artifact (same engine, proc, cost and machine
    callbacks) and {!reset}.  Register storage is reused when shapes
    match, so rebinding to the same program allocates nothing. *)

val start : t -> unit
(** Schedule the first advance at the current time. *)

val resume :
  t -> store:(Wo_prog.Instr.reg * Wo_core.Event.value) option -> delay:int -> unit
(** Let the processor proceed past the memory operation most recently given
    to [perform], optionally storing a read result first.
    @raise Invalid_argument if the processor is not blocked on an
    operation. *)

val finished : t -> bool

val blocked : t -> bool
(** Waiting for the machine to [resume] it. *)

val proc : t -> Wo_core.Event.proc

val registers : t -> (Wo_prog.Instr.reg * Wo_core.Event.value) list
(** Current register file, sorted, restricted to registers the thread's
    code mentions (source register ids). *)

val current_position : t -> string
(** Human-readable description of where the thread is, for deadlock
    diagnostics: a blocked thread names the operation it waits on, by
    kind and location as traces print them (e.g. ["blocked on Sts s
    (pc 8/24, seq 2)"]). *)
