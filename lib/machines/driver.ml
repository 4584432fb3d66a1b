type env = {
  name : string;
  engine : Wo_sim.Engine.t;
  stats : Wo_sim.Stats.t;
  stalls : Wo_obs.Stall.t;
  taps : Wo_obs.Tap.t;
  mutable obs : Wo_obs.Recorder.t;
  rng : Wo_sim.Rng.t;
  mutable program : Wo_prog.Program.t;
  num_procs : int;
  mutable frontends : Proc_frontend.t array;
  mutable next_op_id : int;
  mutable ops_rev : Memsys.op list;
  mutable reset_hooks : (unit -> unit) list;  (* reverse registration order *)
}

let now env = Wo_sim.Engine.now env.engine

let on_reset env hook = env.reset_hooks <- hook :: env.reset_hooks

let stall_at env ~proc reason ~until cycles =
  Wo_obs.Stall.add env.stalls ~sink:env.obs ~now:until ~proc reason cycles

let stall env ~proc reason cycles =
  stall_at env ~proc reason ~until:(now env) cycles

let resume env p ~store ~delay = Proc_frontend.resume env.frontends.(p) ~store ~delay

let new_op env ~proc (op : Proc_frontend.memory_op) : Memsys.op =
  let id = env.next_op_id in
  env.next_op_id <- id + 1;
  let r =
    {
      Memsys.id;
      oproc = proc;
      oseq = op.Proc_frontend.seq;
      okind = op.Proc_frontend.kind;
      oloc = op.Proc_frontend.loc;
      rv = None;
      wv =
        (match op.Proc_frontend.payload with
        | `Write v -> Some v
        | `Read | `Rmw _ -> None);
      issued = now env;
      committed = -1;
      performed = -1;
    }
  in
  env.ops_rev <- r :: env.ops_rev;
  r

let fabric env ~tags ~tag_index ?(slow_procs = []) ?(slow_routes = []) kind =
  let slots = Array.map (Wo_obs.Tap.slot env.taps) tags in
  let tap msg ~src:_ ~dst:_ ~latency =
    Wo_obs.Tap.record_at env.taps slots.(tag_index msg) ~latency
  in
  match kind with
  | Memsys.Bus { transfer_cycles } ->
    let f =
      Wo_interconnect.Fabric.of_bus
        (Wo_interconnect.Bus.create ~engine:env.engine ~stats:env.stats ~tap
           ~transfer_cycles ())
    in
    on_reset env (fun () -> f.Wo_interconnect.Fabric.reset ());
    f
  | Memsys.Net _ | Memsys.Net_spiky _ | Memsys.Net_fixed _ ->
    (* The network gets its own stream, split at fabric construction —
       the split position is part of every machine's reproducibility
       contract, so keep it here and nowhere else.  On session reset
       the parent is reseeded and the hooks replay the splits in
       registration (= construction) order, so the stream is restored
       to exactly its fresh-construction state. *)
    let net_rng = Wo_sim.Rng.split env.rng in
    let latency =
      Wo_interconnect.Latency.of_spec net_rng
        (Option.get (Memsys.latency_spec kind))
    in
    let latency =
      if slow_procs = [] then latency
      else Wo_interconnect.Latency.scale_nodes slow_procs latency
    in
    let latency =
      if slow_routes = [] then latency
      else Wo_interconnect.Latency.scale_routes slow_routes latency
    in
    let f =
      Wo_interconnect.Fabric.of_network
        (Wo_interconnect.Network.create ~engine:env.engine ~stats:env.stats ~tap
           ~latency ())
    in
    on_reset env (fun () ->
        f.Wo_interconnect.Fabric.reset ();
        Wo_sim.Rng.split_into env.rng net_rng);
    f

(* Watchdog diagnostics: every machine reports the rich form — frontend
   positions plus whatever protocol detail the port supplies. *)
let watchdog_report env (port : Memsys.port) =
  let positions =
    Array.to_list env.frontends
    |> List.mapi (fun p fe ->
           let proto = port.Memsys.proc_status p in
           Printf.sprintf "P%d[%s%s]" p
             (Proc_frontend.current_position fe)
             (if proto = "" then "" else " " ^ proto))
    |> String.concat " "
  in
  let shared = port.Memsys.shared_status () in
  Printf.sprintf
    "%s: simulation event limit exceeded (livelock?) at t=%d: %s%s" env.name
    (now env) positions
    (if shared = "" then "" else " " ^ shared)

let build_env ~name ~seed (program : Wo_prog.Program.t) =
  {
    name;
    engine = Wo_sim.Engine.create ();
    stats = Wo_sim.Stats.create ();
    stalls = Wo_obs.Stall.create ();
    taps = Wo_obs.Tap.create ();
    obs = Wo_obs.Recorder.active ();
    rng = Wo_sim.Rng.make seed;
    program;
    num_procs = Wo_prog.Program.num_procs program;
    frontends = [||];
    next_op_id = 0;
    ops_rev = [];
    reset_hooks = [];
  }

(* Restore a built environment to exactly the state a fresh
   [build_env]+[build] at this seed would produce: clear the engine
   (watchdog-aborted runs leave parked closures), observability and
   operation log; reseed the root RNG; replay component hooks in
   registration order (draw replay + in-place component clears). *)
let reset env ~seed ~(program : Wo_prog.Program.t) =
  Wo_sim.Engine.clear env.engine;
  Wo_sim.Stats.clear env.stats;
  Wo_obs.Stall.clear env.stalls;
  Wo_obs.Tap.clear env.taps;
  env.obs <- Wo_obs.Recorder.active ();
  Wo_sim.Rng.reseed env.rng seed;
  env.program <- program;
  env.next_op_id <- 0;
  env.ops_rev <- [];
  List.iter (fun f -> f ()) (List.rev env.reset_hooks)

(* The run loop and result assembly.  The result deep-copies the mutable
   observability state so a later in-place reset cannot disturb it.
   [locs] is the bound program's location list. *)
let execute env (port : Memsys.port) finish_times ~locs =
  Array.iter Proc_frontend.start env.frontends;
  (match Wo_sim.Engine.run env.engine with
  | `Idle -> ()
  | `Time_limit | `Event_limit ->
    raise (Machine.Machine_error (watchdog_report env port)));
  Array.iteri
    (fun p fe ->
      if not (Proc_frontend.finished fe) then
        raise
          (Machine.Machine_error
             (Printf.sprintf "%s: deadlock: P%d %s\n%s" env.name p
                (Proc_frontend.current_position fe)
                (port.Memsys.debug_dump ()))))
    env.frontends;
  port.Memsys.check_drained ();
  let program = env.program in
  let memory = List.map (fun loc -> (loc, port.Memsys.final_value loc)) locs in
  let observable p r =
    match program.Wo_prog.Program.observable with
    | None -> true
    | Some l -> List.mem (p, r) l
  in
  let registers =
    Array.to_list env.frontends
    |> List.concat_map (fun fe ->
           let p = Proc_frontend.proc fe in
           Proc_frontend.registers fe
           |> List.filter (fun (r, _) -> observable p r)
           |> List.map (fun (r, v) -> (p, r, v)))
  in
  let trace = Wo_sim.Trace.create () in
  List.iter
    (fun (r : Memsys.op) ->
      if r.committed < 0 || r.performed < 0 then
        raise
          (Machine.Machine_error
             (Printf.sprintf
                "%s: operation %d (P%d seq %d %s loc %d, committed=%d \
                 performed=%d) never completed\n%s"
                env.name r.id r.oproc r.oseq
                (Format.asprintf "%a" Wo_core.Event.pp_kind r.okind)
                r.oloc r.committed r.performed
                (port.Memsys.debug_dump ())));
      if Wo_obs.Recorder.enabled env.obs then
        Wo_obs.Recorder.span env.obs ~cat:Wo_obs.Recorder.Proc ~track:r.oproc
          ~name:
            (Format.asprintf "%a.%a" Wo_core.Event.pp_kind r.okind
               Wo_core.Event.pp_loc r.oloc)
          ~ts:r.issued
          ~dur:(max 0 (r.performed - r.issued));
      Wo_sim.Trace.add trace
        {
          Wo_sim.Trace.event =
            Wo_core.Event.make ~id:r.id ~proc:r.oproc ~seq:r.oseq ~kind:r.okind
              ~loc:r.oloc ?read_value:r.rv ?written_value:r.wv ();
          issued = r.issued;
          committed = r.committed;
          performed = r.performed;
        })
    (List.rev env.ops_rev);
  {
    Machine.outcome = Wo_prog.Outcome.make ~registers ~memory;
    trace;
    cycles = now env;
    proc_finish = Array.copy finish_times;
    counters = Wo_sim.Stats.copy env.stats;
    stalls = Wo_obs.Stall.copy env.stalls;
    taps = Wo_obs.Tap.copy env.taps;
  }

let frontend_perform (port : Memsys.port) p = function
  | Proc_frontend.Access op -> port.Memsys.perform p op
  | Proc_frontend.Fence -> port.Memsys.fence p

(* --- sessions --------------------------------------------------------------- *)

type session_state = {
  senv : env;
  sport : Memsys.port;
  sfinish : int array;
  (* Current frontend binding; compared physically so rebinding the same
     program object is free. *)
  mutable sprog : Wo_prog.Program.t;
  mutable sart : Wo_prog.Prog_compile.t;
  mutable slocs : Wo_core.Event.loc list;  (* [Program.locs sprog] *)
  (* The last run's result, kept only if that run completed untraced
     without drawing from [senv.rng]: the run never read its seed, so it
     is the result at every seed while the binding stands. *)
  mutable skept : Machine.result option;
}

(* One session of [make]'s machine; the interface states its contract. *)
let new_session ~name ~local_cost ~build () : Machine.session =
  let state : session_state option ref = ref None in
  let session_run ~seed ?compiled program =
    Machine.note_run ();
    let num_procs = Wo_prog.Program.num_procs program in
    (* Resolve the artifact for this run, reusing the previous
       compilation while the same program object stays bound. *)
    let art =
      match (compiled, !state) with
      | Some art, _ -> art
      | None, Some st when st.sprog == program -> st.sart
      | None, _ -> Machine.compile ~name program
    in
    let st =
      match !state with
      | Some st when st.senv.num_procs = num_procs ->
        Machine.note_session_reuse ();
        st
      | _ ->
        (* First run, or a different machine width: (re)build the whole
           stack — ports and frontends capture [num_procs] in their
           closures and topology. *)
        let env = build_env ~name ~seed program in
        let port = build env in
        let finish = Array.make num_procs (-1) in
        env.frontends <-
          Array.init num_procs (fun p ->
              Proc_frontend.create ~engine:env.engine ~proc:p ~compiled:art
                ~local_cost
                ~perform:(frontend_perform port p)
                ~on_finish:(fun () -> finish.(p) <- now env)
                ());
        let st =
          { senv = env; sport = port; sfinish = finish; sprog = program;
            sart = art; slocs = Wo_prog.Program.locs program; skept = None }
        in
        state := Some st;
        st
    in
    let env = st.senv in
    let same_binding = st.sprog == program && st.sart == art in
    match st.skept with
    | Some r
      when same_binding
           && not (Wo_obs.Recorder.enabled (Wo_obs.Recorder.active ())) ->
      Machine.note_session_replay ();
      r
    | _ ->
      (* Cleared before running, so a rebind or a [Machine_error] run
         leaves nothing to replay. *)
      st.skept <- None;
      (* Reset unconditionally — also right after build, so the first
         run goes down the same path, and after a [Machine_error] run,
         whose debris (parked engine events, partial protocol state)
         must not leak into the next seed. *)
      reset env ~seed ~program;
      if same_binding then Array.iter Proc_frontend.reset env.frontends
      else begin
        Array.iter (fun fe -> Proc_frontend.rebind fe art) env.frontends;
        if st.sprog != program then st.slocs <- Wo_prog.Program.locs program;
        st.sprog <- program;
        st.sart <- art
      end;
      Array.fill st.sfinish 0 (Array.length st.sfinish) (-1);
      let draws = Wo_sim.Rng.draws env.rng in
      let r = execute env st.sport st.sfinish ~locs:st.slocs in
      if
        Wo_sim.Rng.draws env.rng = draws
        && not (Wo_obs.Recorder.enabled env.obs)
      then st.skept <- Some r;
      r
  in
  { Machine.session_machine = name; session_run }

let make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    ~local_cost ~build : Machine.t =
  {
    Machine.name;
    description;
    sequentially_consistent;
    weakly_ordered_drf0;
    new_session = new_session ~name ~local_cost ~build;
  }
