(** The shared machine driver.

    Everything the simulated machines have in common lives here, once:
    engine / statistics / stall-account / tap setup, fabric construction
    (with the RNG-split discipline that makes runs reproducible),
    processor-frontend wiring, the run loop, a unified livelock/deadlock
    watchdog with rich per-processor diagnostics, operation lifecycle
    bookkeeping and result assembly.  A memory system contributes only a
    {!Memsys.port}; see {!Uncached}, {!Ordering} and {!Coherent} for the
    shipped protocols.

    There is one execution path: a session ({!make}) builds once per
    machine shape, then resets the environment in place before every run, the
    first included ({!Machine.run} is a fresh session's first run).  A
    [build] function whose components keep mutable state must register
    an {!on_reset} hook restoring them to their just-built state; hooks
    replay in registration order after [env.rng] is reseeded, so RNG
    splits recorded in hooks restore component streams exactly. *)

type env = {
  name : string;
  engine : Wo_sim.Engine.t;
  stats : Wo_sim.Stats.t;
  stalls : Wo_obs.Stall.t;
  taps : Wo_obs.Tap.t;
  mutable obs : Wo_obs.Recorder.t;  (** refreshed from the ambient sink on reset *)
  rng : Wo_sim.Rng.t;  (** seed stream; split it per component *)
  mutable program : Wo_prog.Program.t;
      (** the program of the current run; rebound by session resets, so
          ports must read it through [env], never capture it *)
  num_procs : int;
      (** fixed for the life of the environment — sessions rebuild when
          the width changes *)
  mutable frontends : Proc_frontend.t array;
      (** filled by the driver after [build] returns; valid whenever the
          engine is running *)
  mutable next_op_id : int;
  mutable ops_rev : Memsys.op list;
  mutable reset_hooks : (unit -> unit) list;
}
(** The environment handed to a port builder. *)

val now : env -> int

val on_reset : env -> (unit -> unit) -> unit
(** Register a hook restoring component state on session reset.  Hooks
    run in registration order, after the engine/stats/stalls/taps are
    cleared and [env.rng] is reseeded — so a hook that re-splits the
    root RNG reproduces the draw its component took at build time. *)

val stall : env -> proc:int -> Wo_obs.Stall.reason -> int -> unit
(** Attribute stall cycles ending now. *)

val stall_at : env -> proc:int -> Wo_obs.Stall.reason -> until:int -> int -> unit
(** Attribute stall cycles whose span ended at [until] (for waits whose
    phases are only known after the fact). *)

val resume :
  env ->
  int ->
  store:(Wo_prog.Instr.reg * Wo_core.Event.value) option ->
  delay:int ->
  unit
(** Resume processor [p]'s frontend. *)

val new_op : env -> proc:int -> Proc_frontend.memory_op -> Memsys.op
(** Record the issue of one memory operation: assigns the id, stamps
    [issued] with the current time, pre-fills [wv] for writes and
    appends the record to the run's operation list. *)

val fabric :
  env ->
  tags:string array ->
  tag_index:('msg -> int) ->
  ?slow_procs:(int * int) list ->
  ?slow_routes:((int * int) * int) list ->
  Memsys.fabric_kind ->
  'msg Wo_interconnect.Fabric.t
(** Build the interconnect: a bus, or a network whose latency model is
    interpreted from the fabric kind with a dedicated RNG stream split
    from [env.rng] (the split happens exactly once, here, so every
    machine draws network jitter identically).  [slow_procs] /
    [slow_routes] wrap the model with node / route multipliers
    ({!Wo_interconnect.Latency.scale_nodes} / [scale_routes]); they are
    ignored by the bus, as before.  Every delivered message is recorded
    in [env.taps] under [tags.(tag_index msg)]; the names resolve to tap
    slots once, here, and the stats counters of the bus or network to
    stats slots.  Registers its own {!on_reset} hook
    (state drop + stream re-split), so builders need not. *)

val make :
  name:string ->
  description:string ->
  sequentially_consistent:bool ->
  weakly_ordered_drf0:bool ->
  local_cost:int ->
  build:(env -> Memsys.port) ->
  Machine.t
(** Package [build] as a {!Machine.t}.  Each {!Machine.new_session} of
    it is a reusable context over the same [build].  The memory system,
    port and frontends are constructed on the first run (and again only
    if a program with a different processor count arrives); every run starts
    by resetting the environment in place — including the first, and
    including after a {!Machine.Machine_error} run, whose debris must
    not leak into the next seed.  The frontends step the program's
    {!Wo_prog.Prog_compile} artifact, supplied per run or compiled at
    binding and cached while the same program stays bound; a program
    that does not compile raises {!Machine.Machine_error} naming the
    bound ({!Machine.compile}).  Then the engine runs to quiescence, and
    drains are checked.  Raises {!Machine.Machine_error} with the
    unified rich diagnostics — per-processor frontend positions plus
    the port's protocol detail — on livelock (event limit), deadlock
    (unfinished frontend), leftover protocol state or an operation that
    never completed.  Results are deep-copied out of the mutable
    observability state, so a later reset cannot disturb them.

    {b Replay.}  A run that completes without drawing from [env.rng]
    (its {!Wo_sim.Rng.draws} count is unchanged by the run) is kept,
    and later runs return that same physical result instead of
    simulating, whatever their seed, while the same program object and
    the same artifact stay bound and the ambient recorder is disabled.
    This is exact: the seed reaches a run only through [env.rng], so a
    run that never drew follows the same path at every seed.  Rebinding
    (another program or artifact), rebuilding for another width, a
    {!Machine.Machine_error} run or an enabled recorder clears or skips
    the kept result; runs made under an enabled recorder always
    simulate (their spans are output) and are never kept.  Replays
    count in {!Machine.runs} and {!Machine.session_replays}. *)

