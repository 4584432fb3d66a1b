(** The AST processor frontend: {!Wo_machines.Proc_frontend}'s oracle.

    Walks one thread's {!Wo_prog.Instr} tree directly — one instruction
    per engine event, local ops at [local_cost], memory operations and
    fences handed to [perform] until {!resume} — with the compiled
    frontend's {!create}/{!start}/{!resume}/{!registers} contract.  Given
    the same engine schedule and the same read values, both issue equal
    request streams at equal times and finish with equal registers;
    {!Scripted_port} drives the two in lockstep.  The one difference in
    the requests: [dest] is the source register id here and the flat
    register index in the compiled frontend. *)

type t

val create :
  engine:Wo_sim.Engine.t ->
  proc:Wo_core.Event.proc ->
  code:Wo_prog.Instr.t list ->
  ?local_cost:int ->
  perform:(Wo_machines.Proc_frontend.request -> unit) ->
  on_finish:(unit -> unit) ->
  unit ->
  t

val start : t -> unit

val resume :
  t -> store:(Wo_prog.Instr.reg * Wo_core.Event.value) option -> delay:int -> unit
(** @raise Invalid_argument if the processor is not blocked. *)

val finished : t -> bool

val registers : t -> (Wo_prog.Instr.reg * Wo_core.Event.value) list
(** Sorted by register, restricted to registers the code mentions. *)
