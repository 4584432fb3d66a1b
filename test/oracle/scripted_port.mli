(** A scripted memory port: runs one program's processor frontends on
    one engine with no memory system behind them.

    Each memory operation is performed atomically on a flat memory when
    it is issued (reads see the current value, writes and RMWs update
    it), and the processor is resumed — with the read value, if any —
    after a delay drawn from a seeded stream, in request order, with 0
    among the choices.  So two frontends that issue the same requests
    at the same times receive the same delays and read values: driving
    {!Wo_machines.Proc_frontend} and {!Ast_frontend} through it, each on
    its own engine, is a lockstep test of the two walkers.  Every
    processor shares the one engine, so the compiled walker's
    inline-step fast path meets other processors' pending events. *)

type frontend = {
  start : unit -> unit;
  resume :
    store:(Wo_prog.Instr.reg * Wo_core.Event.value) option -> delay:int -> unit;
  finished : unit -> bool;
  registers : unit -> (Wo_prog.Instr.reg * Wo_core.Event.value) list;
  source_reg : Wo_prog.Instr.reg -> Wo_prog.Instr.reg;
      (** a request's [dest] as a source register id *)
}

type maker =
  engine:Wo_sim.Engine.t ->
  proc:Wo_core.Event.proc ->
  perform:(Wo_machines.Proc_frontend.request -> unit) ->
  on_finish:(unit -> unit) ->
  frontend
(** Makes one processor's frontend, wired to the port's callbacks. *)

val compiled : ?local_cost:int -> Wo_prog.Prog_compile.t -> maker
(** {!Wo_machines.Proc_frontend} on the artifact. *)

val ast : ?local_cost:int -> Wo_prog.Program.t -> maker
(** {!Ast_frontend} on the source program. *)

type run = {
  requests : (int * Wo_core.Event.proc * Wo_machines.Proc_frontend.request) list;
      (** (issue time, processor, request) in issue order, [dest] as a
          source register id *)
  registers : (Wo_prog.Instr.reg * Wo_core.Event.value) list array;
  finish : int array;  (** per processor, the time it finished *)
  end_time : int;  (** engine time when the run drained *)
}

val run : ?max_delay:int -> seed:int -> Wo_prog.Program.t -> maker -> run
(** Run every thread of the program to completion.  Delays are drawn
    uniformly from [0 .. max_delay] (default 3).
    @raise Failure if the engine's event limit fires or a thread does
    not finish. *)
