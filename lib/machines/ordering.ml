(* Operational consistency-model backends behind the Memsys port.

   One builder covers the three relaxed hardware ordering models of
   {!Wo_core.Sync_model}: the differences are captured by how deposited
   writes are channelled to memory and by what synchronization drains.

   - TSO: one FIFO store buffer per processor.  A single entry is in
     flight at a time and the next is sent only after its
     acknowledgement, so writes perform in program order; reads overtake
     the buffer (W->R) and forward from the youngest pending write.
   - PSO: one channel per (processor, location).  Channels drain
     independently, so writes to different locations perform out of
     program order (W->W); per-location order is kept by the one-in-
     flight rule within each channel.
   - RA: channels as under PSO, with a bounded total window of pending
     writes.  Read-only synchronization (acquire) issues without
     draining; only write synchronization (release) waits for every
     pending write to perform, then for itself.

   Under TSO and PSO every synchronization operation is a full barrier:
   drain all channels, wait for every acknowledgement, then perform the
   operation waiting for its completion.  With [sync_barriers = false]
   synchronization is treated as data (the machine enforces nothing and
   is not weakly ordered, mirroring [Sync_none] elsewhere).

   The memory side is {!Flat_memory}, shared with {!Uncached};
   everything machine-generic lives in {!Driver}. *)

type kind =
  | Tso of { depth : int; drain_delay : int }
  | Pso of { depth : int; drain_delay : int }
  | Ra of { window : int; drain_delay : int }

type config = {
  fabric : Memsys.fabric_kind;
  kind : kind;
  sync_barriers : bool;
  modules : int;
  local_cost : int;
}

let drain_delay_of = function
  | Tso { drain_delay; _ } | Pso { drain_delay; _ } | Ra { drain_delay; _ } ->
    drain_delay

type entry = { eloc : Wo_core.Event.loc; evalue : Wo_core.Event.value; etag : int }

(* One ordered path to memory: a FIFO of deposited writes with at most
   one in flight.  TSO gives each processor a single channel; PSO and RA
   give it one per location. *)
type chan = { cq : entry Queue.t; mutable inflight : bool }

type proc_ctx = {
  channels : (Wo_core.Event.loc, chan) Hashtbl.t;
      (* TSO maps every location to the one channel stored under key 0 *)
  last_value : (Wo_core.Event.loc, Wo_core.Event.value) Hashtbl.t;
  pending_at : (Wo_core.Event.loc, int) Hashtbl.t;
      (* deposited-but-unacknowledged writes per location *)
  mutable total_pending : int;
  mutable quiet_waiters : (unit -> unit) list;
  mutable room_waiters : (unit -> unit) list;
  mutable loc_waiters : (Wo_core.Event.loc * (unit -> unit)) list;
}

let build (config : config) (env : Driver.env) : Memsys.port =
  let engine = env.Driver.engine in
  let mem = Flat_memory.create env ~modules:config.modules config.fabric in
  let per_loc_channels =
    match config.kind with Tso _ -> false | Pso _ | Ra _ -> true
  in
  let acquire_relaxed =
    match config.kind with Tso _ | Pso _ -> false | Ra _ -> true
  in
  let drain_delay = max 0 (drain_delay_of config.kind) in
  let ctxs =
    Array.init env.Driver.num_procs (fun _ ->
        {
          channels = Hashtbl.create 8;
          last_value = Hashtbl.create 8;
          pending_at = Hashtbl.create 8;
          total_pending = 0;
          quiet_waiters = [];
          room_waiters = [];
          loc_waiters = [];
        })
  in
  Driver.on_reset env (fun () ->
      Array.iter
        (fun ctx ->
          Hashtbl.reset ctx.channels;
          Hashtbl.reset ctx.last_value;
          Hashtbl.reset ctx.pending_at;
          ctx.total_pending <- 0;
          ctx.quiet_waiters <- [];
          ctx.room_waiters <- [];
          ctx.loc_waiters <- [])
        ctxs);
  let stall p reason cycles = Driver.stall env ~proc:p reason cycles in
  let stats = env.Driver.stats in
  let s_drains = Wo_sim.Stats.slot stats "model.drains"
  and s_deposits = Wo_sim.Stats.slot stats "model.deposits"
  and s_forwards = Wo_sim.Stats.slot stats "model.forwards"
  and s_barrier_drains = Wo_sim.Stats.slot stats "model.barrier_drains"
  and s_occupancy = Wo_sim.Stats.slot stats "model.occupancy.max" in
  let stat = Wo_sim.Stats.incr_at stats in
  let note_occupancy p ctx =
    Wo_sim.Stats.max_at stats s_occupancy ctx.total_pending;
    if Wo_obs.Recorder.enabled env.Driver.obs then
      Wo_obs.Recorder.counter env.Driver.obs ~cat:Wo_obs.Recorder.Proc ~track:p
        ~name:"model.buffer" ~ts:(Wo_sim.Engine.now engine)
        ~value:ctx.total_pending
  in
  let chan_of ctx loc =
    let key = if per_loc_channels then loc else 0 in
    match Hashtbl.find_opt ctx.channels key with
    | Some c -> c
    | None ->
      let c = { cq = Queue.create (); inflight = false } in
      Hashtbl.replace ctx.channels key c;
      c
  in
  let pending ctx loc =
    match Hashtbl.find_opt ctx.pending_at loc with Some n -> n | None -> 0
  in
  let quiet ctx = ctx.total_pending = 0 in
  let has_room ctx loc =
    match config.kind with
    | Tso { depth; _ } -> ctx.total_pending < depth
    | Ra { window; _ } -> ctx.total_pending < window
    | Pso { depth; _ } -> pending ctx loc < depth
  in
  let fire_waiters ctx =
    if quiet ctx then begin
      let ws = ctx.quiet_waiters in
      ctx.quiet_waiters <- [];
      List.iter (fun k -> k ()) ws
    end;
    let ws = ctx.room_waiters in
    ctx.room_waiters <- [];
    List.iter (fun k -> k ()) ws
  in
  let fire_loc_waiters ctx loc =
    if pending ctx loc = 0 then begin
      let ready, rest =
        List.partition (fun (l, _) -> l = loc) ctx.loc_waiters
      in
      ctx.loc_waiters <- rest;
      List.iter (fun (_, k) -> k ()) ready
    end
  in
  let on_quiet ctx k =
    if quiet ctx then k () else ctx.quiet_waiters <- k :: ctx.quiet_waiters
  in
  (* Drain one channel: send its oldest entry after the rest delay, and
     only send the next after the acknowledgement comes back, so entries
     of one channel perform in deposit order. *)
  let rec drain p chan =
    if not chan.inflight then
      match Queue.peek_opt chan.cq with
      | None -> ()
      | Some entry ->
        ignore (Queue.pop chan.cq);
        chan.inflight <- true;
        Wo_sim.Engine.schedule engine ~delay:drain_delay (fun () ->
            Flat_memory.send_write mem ~proc:p ~tag:entry.etag entry.eloc
              entry.evalue)
  and write_acked p ctx loc =
    let chan = chan_of ctx loc in
    chan.inflight <- false;
    Hashtbl.replace ctx.pending_at loc (pending ctx loc - 1);
    ctx.total_pending <- ctx.total_pending - 1;
    stat s_drains;
    note_occupancy p ctx;
    fire_loc_waiters ctx loc;
    drain p chan;
    fire_waiters ctx
  in
  let deposit p ctx (r : Memsys.op) v =
    let now = Wo_sim.Engine.now engine in
    let tag =
      Flat_memory.expect mem r (fun _ -> write_acked p ctx r.Memsys.oloc)
    in
    Hashtbl.replace ctx.last_value r.Memsys.oloc v;
    Hashtbl.replace ctx.pending_at r.Memsys.oloc (pending ctx r.Memsys.oloc + 1);
    ctx.total_pending <- ctx.total_pending + 1;
    stat s_deposits;
    note_occupancy p ctx;
    let chan = chan_of ctx r.Memsys.oloc in
    Queue.add { eloc = r.Memsys.oloc; evalue = v; etag = tag } chan.cq;
    r.Memsys.committed <- now;
    Driver.resume env p ~store:None ~delay:1;
    drain p chan
  in
  let perform p (op : Proc_frontend.memory_op) =
    let ctx = ctxs.(p) in
    let now () = Wo_sim.Engine.now engine in
    let sync = Wo_core.Event.is_sync_kind op.Proc_frontend.kind in
    let barrier = sync && config.sync_barriers in
    (* A synchronization write (or a data write on a machine that waits)
       goes straight to its module; the processor resumes at the
       acknowledgement. *)
    let issue_direct_write (r : Memsys.op) v ~reason =
      let t0 = now () in
      Hashtbl.replace ctx.pending_at r.Memsys.oloc (pending ctx r.Memsys.oloc + 1);
      ctx.total_pending <- ctx.total_pending + 1;
      Flat_memory.write mem ~proc:p r v (fun r ->
          Hashtbl.replace ctx.pending_at r.Memsys.oloc
            (pending ctx r.Memsys.oloc - 1);
          ctx.total_pending <- ctx.total_pending - 1;
          fire_loc_waiters ctx r.Memsys.oloc;
          fire_waiters ctx;
          stall p reason (now () - t0);
          Driver.resume env p ~store:None ~delay:1)
    in
    let forward_read r v =
      stat s_forwards;
      Flat_memory.forward mem ~proc:p op r v
    in
    let go () =
      let r = Driver.new_op env ~proc:p op in
      match op.Proc_frontend.payload with
      | `Read ->
        if pending ctx r.Memsys.oloc > 0 then
          (* store-to-load forwarding: the youngest pending write wins *)
          forward_read r (Hashtbl.find ctx.last_value r.Memsys.oloc)
        else Flat_memory.read mem ~proc:p op r ~on_reply:ignore
      | `Rmw f ->
        if pending ctx r.Memsys.oloc > 0 then begin
          let t0 = now () in
          ctx.loc_waiters <-
            ( r.Memsys.oloc,
              fun () ->
                stall p Wo_obs.Stall.Rmw_order (now () - t0);
                Flat_memory.rmw mem ~proc:p op r f ~on_reply:ignore )
            :: ctx.loc_waiters
        end
        else Flat_memory.rmw mem ~proc:p op r f ~on_reply:ignore
      | `Write v ->
        if barrier then
          issue_direct_write r v ~reason:Wo_obs.Stall.Write_ack
        else if has_room ctx r.Memsys.oloc then deposit p ctx r v
        else begin
          let t0 = now () in
          let rec retry () =
            if has_room ctx r.Memsys.oloc then begin
              stall p Wo_obs.Stall.Buffer_full (now () - t0);
              deposit p ctx r v
            end
            else ctx.room_waiters <- retry :: ctx.room_waiters
          in
          ctx.room_waiters <- retry :: ctx.room_waiters
        end
    in
    let acquire =
      match op.Proc_frontend.payload with `Read -> acquire_relaxed | _ -> false
    in
    if barrier && not acquire then begin
      (* Release barrier: every pending write of this processor performs
         before the synchronization is issued. *)
      if not (quiet ctx) then stat s_barrier_drains;
      let t0 = Wo_sim.Engine.now engine in
      on_quiet ctx (fun () ->
          stall p Wo_obs.Stall.Release_gate (Wo_sim.Engine.now engine - t0);
          go ())
    end
    else go ()
  in
  let fence p =
    let ctx = ctxs.(p) in
    let t0 = Wo_sim.Engine.now engine in
    on_quiet ctx (fun () ->
        Driver.stall env ~proc:p Wo_obs.Stall.Counter_drain
          (Wo_sim.Engine.now engine - t0);
        Driver.resume env p ~store:None ~delay:1)
  in
  let proc_status p =
    let ctx = ctxs.(p) in
    let locs =
      Hashtbl.fold
        (fun loc n acc -> if n > 0 then (loc, n) :: acc else acc)
        ctx.pending_at []
      |> List.sort compare
      |> List.map (fun (l, n) -> Printf.sprintf "%d:%d" l n)
      |> String.concat ","
    in
    Printf.sprintf "pending=%d%s" ctx.total_pending
      (if locs = "" then "" else " [" ^ locs ^ "]")
  in
  Flat_memory.port mem ~perform ~fence ~proc_status
    ~quiet:(fun p -> quiet ctxs.(p))

let make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    (config : config) : Machine.t =
  if config.modules <= 0 then
    invalid_arg "Ordering.make: modules must be positive";
  (match config.kind with
  | Tso { depth; _ } | Pso { depth; _ } ->
    if depth <= 0 then invalid_arg "Ordering.make: depth must be positive"
  | Ra { window; _ } ->
    if window <= 0 then invalid_arg "Ordering.make: window must be positive");
  Driver.make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    ~local_cost:config.local_cost ~build:(build config)
