(** The idealized architecture as a machine.

    Wraps {!Wo_prog.Cinterp.run_random} (atomic memory, program order,
    randomized scheduling) behind the common {!Machine.t} interface so the
    harnesses can treat it uniformly.  A session compiles the bound
    program once and reuses the artifact while the same program object
    (or a supplied artifact) stays bound.  Sequentially consistent by
    construction; the trace's commit order is the execution order. *)

val machine : Machine.t
