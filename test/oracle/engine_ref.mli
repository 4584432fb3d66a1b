(** The map-of-lists discrete-event engine the binary-heap
    {!Wo_sim.Engine} replaced: the same schedule sequence executes in the
    same order on both (FIFO within a tick, handler-scheduled same-tick
    events after the current batch).  The one divergence is at
    [max_events], where this engine finishes the current tick's batch. *)

include Wo_sim.Engine.S
