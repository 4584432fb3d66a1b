(* The cache-less machines of Figure 1, configurations 1 and 2: the
   memory side is {!Flat_memory} (shared with {!Ordering}); this module
   is the processor side's write path — an optional write buffer with
   read bypass and forwarding, and per-location write sequencing for
   fire-and-forget writes — plus the fences that order it.  Everything
   machine-generic (engine, frontends, run loop, watchdog, trace) lives
   in {!Driver}. *)

type buffer_config = {
  depth : int;
  read_bypass : bool;
  forwarding : bool;
  drain_delay : int;
      (* cycles an entry rests in the buffer before going to memory; the
         window in which a bypassing read can overtake it *)
}

type config = {
  fabric : Memsys.fabric_kind;
  write_buffer : buffer_config option;
  wait_write_ack : bool;
  flush_buffer_on_sync : bool;
  modules : int;
  local_cost : int;
}

(* Per-location write sequencing: preserves intra-processor same-location
   ordering (condition 1 of 5.1) even with fire-and-forget writes -- at most
   one write per location is in flight, later ones queue, and reads of a
   location with outstanding writes forward the youngest value. *)
type loc_state = {
  mutable in_flight : bool;
  pending_sends : (unit -> unit) Queue.t;
  mutable last_value : Wo_core.Event.value;
  mutable loc_waiters : (unit -> unit) list;
}

type proc_ctx = {
  buffer : Wo_cache.Write_buffer.t option;
  loc_states : (Wo_core.Event.loc, loc_state) Hashtbl.t;
  mutable outstanding_acks : int;
  mutable drain_active : bool;
  mutable quiet_waiters : (unit -> unit) list;
      (* waiting for buffer empty && no outstanding acks *)
}

let build (config : config) (env : Driver.env) : Memsys.port =
  let engine = env.Driver.engine in
  let mem = Flat_memory.create env ~modules:config.modules config.fabric in
  let ctxs =
    Array.init env.Driver.num_procs (fun _ ->
        {
          buffer =
            Option.map
              (fun (b : buffer_config) -> Wo_cache.Write_buffer.create ~depth:b.depth)
              config.write_buffer;
          loc_states = Hashtbl.create 16;
          outstanding_acks = 0;
          drain_active = false;
          quiet_waiters = [];
        })
  in
  (* Session reset: back to the just-built state.  Hashtbl.reset (not
     clear) restores initial capacity, so the tables regrow exactly as a
     fresh build's would. *)
  Driver.on_reset env (fun () ->
      Array.iter
        (fun ctx ->
          (match ctx.buffer with
          | Some b -> Wo_cache.Write_buffer.clear b
          | None -> ());
          Hashtbl.reset ctx.loc_states;
          ctx.outstanding_acks <- 0;
          ctx.drain_active <- false;
          ctx.quiet_waiters <- [])
        ctxs);
  let stall p reason cycles = Driver.stall env ~proc:p reason cycles in
  let quiet ctx =
    (match ctx.buffer with
    | Some b -> Wo_cache.Write_buffer.is_empty b
    | None -> true)
    && ctx.outstanding_acks = 0
  in
  let check_quiet ctx =
    if quiet ctx then begin
      let ws = ctx.quiet_waiters in
      ctx.quiet_waiters <- [];
      List.iter (fun k -> k ()) ws
    end
  in
  let on_quiet ctx k =
    if quiet ctx then k () else ctx.quiet_waiters <- k :: ctx.quiet_waiters
  in
  let loc_state ctx loc =
    match Hashtbl.find_opt ctx.loc_states loc with
    | Some ls -> ls
    | None ->
      let ls =
        {
          in_flight = false;
          pending_sends = Queue.create ();
          last_value = 0;
          loc_waiters = [];
        }
      in
      Hashtbl.replace ctx.loc_states loc ls;
      ls
  in
  let loc_busy ctx loc =
    let ls = loc_state ctx loc in
    ls.in_flight || not (Queue.is_empty ls.pending_sends)
  in
  let write_acked ctx loc =
    let ls = loc_state ctx loc in
    match Queue.take_opt ls.pending_sends with
    | Some next -> next () (* stays in flight *)
    | None ->
      ls.in_flight <- false;
      let ws = ls.loc_waiters in
      ls.loc_waiters <- [];
      List.iter (fun k -> k ()) ws
  in
  let sequence_write ctx loc send =
    let ls = loc_state ctx loc in
    if ls.in_flight then Queue.add send ls.pending_sends
    else begin
      ls.in_flight <- true;
      send ()
    end
  in
  (* Drain the write buffer one entry at a time. *)
  let rec drain p ctx =
    match ctx.buffer with
    | None -> ()
    | Some b ->
      if not ctx.drain_active then (
        match Wo_cache.Write_buffer.pop b with
        | None ->
          Wo_cache.Write_buffer.notify b;
          check_quiet ctx
        | Some entry ->
          ctx.drain_active <- true;
          ctx.outstanding_acks <- ctx.outstanding_acks + 1;
          let ls = loc_state ctx entry.Wo_cache.Write_buffer.loc in
          ls.in_flight <- true;
          ls.last_value <- entry.Wo_cache.Write_buffer.value;
          Flat_memory.rebind mem entry.Wo_cache.Write_buffer.tag (fun _ ->
              ctx.drain_active <- false;
              ctx.outstanding_acks <- ctx.outstanding_acks - 1;
              write_acked ctx entry.Wo_cache.Write_buffer.loc;
              Wo_cache.Write_buffer.notify b;
              drain p ctx);
          let delay =
            match config.write_buffer with
            | Some bc -> max 0 bc.drain_delay
            | None -> 0
          in
          Wo_sim.Engine.schedule engine ~delay (fun () ->
              Flat_memory.send_write mem ~proc:p
                ~tag:entry.Wo_cache.Write_buffer.tag
                entry.Wo_cache.Write_buffer.loc
                entry.Wo_cache.Write_buffer.value))
  in
  let perform p (op : Proc_frontend.memory_op) =
    let ctx = ctxs.(p) in
    let now () = Wo_sim.Engine.now engine in
    let sync = Wo_core.Event.is_sync_kind op.Proc_frontend.kind in
    let request_sent () = ctx.outstanding_acks <- ctx.outstanding_acks + 1 in
    let reply_received () =
      ctx.outstanding_acks <- ctx.outstanding_acks - 1;
      check_quiet ctx
    in
    let issue_read (r : Memsys.op) =
      request_sent ();
      Flat_memory.read mem ~proc:p op r
        ~on_reply:reply_received
    in
    let issue_rmw (r : Memsys.op) f =
      request_sent ();
      Flat_memory.rmw mem ~proc:p op r f
        ~on_reply:reply_received
    in
    let issue_plain_write (r : Memsys.op) v ~wait =
      let ls = loc_state ctx r.Memsys.oloc in
      ls.last_value <- v;
      let send () =
        request_sent ();
        Flat_memory.write mem ~proc:p r v (fun r ->
            ctx.outstanding_acks <- ctx.outstanding_acks - 1;
            write_acked ctx r.Memsys.oloc;
            check_quiet ctx;
            if wait then begin
              stall p Wo_obs.Stall.Write_ack (now () - r.Memsys.issued);
              Driver.resume env p ~store:None ~delay:1
            end)
      in
      sequence_write ctx r.Memsys.oloc send;
      if not wait then Driver.resume env p ~store:None ~delay:1
    in
    let go () =
      let r = Driver.new_op env ~proc:p op in
      match op.Proc_frontend.payload with
      | `Read -> (
        match (ctx.buffer, config.write_buffer) with
        | Some b, Some bc
          when bc.forwarding && Wo_cache.Write_buffer.has_loc b r.Memsys.oloc
          -> (
          (* Store-to-load forwarding: the youngest buffered write wins. *)
          match Wo_cache.Write_buffer.newest_for b r.Memsys.oloc with
          | Some entry ->
            Flat_memory.forward mem ~proc:p op r entry.Wo_cache.Write_buffer.value
          | None -> assert false)
        | Some b, Some bc
          when (not bc.forwarding) && Wo_cache.Write_buffer.has_loc b r.Memsys.oloc
          ->
          (* No forwarding: wait until our write to this location has
             reached memory (dependency preservation). *)
          let t0 = now () in
          on_quiet ctx (fun () ->
              stall p Wo_obs.Stall.Buffer_drain (now () - t0);
              issue_read r)
        | Some b, Some bc
          when (not bc.read_bypass) && not (Wo_cache.Write_buffer.is_empty b)
          ->
          (* No bypass: the read waits for the buffer to drain. *)
          let t0 = now () in
          Wo_cache.Write_buffer.on_empty b (fun () ->
              stall p Wo_obs.Stall.Buffer_drain (now () - t0);
              issue_read r)
        | _ ->
          if loc_busy ctx r.Memsys.oloc then
            (* A write of ours to this location is still on its way to
               memory: forward its value. *)
            Flat_memory.forward mem ~proc:p op r
              (loc_state ctx r.Memsys.oloc).last_value
          else issue_read r)
      | `Rmw f ->
        let rec gated () =
          let buffered =
            match ctx.buffer with
            | Some b -> Wo_cache.Write_buffer.has_loc b r.Memsys.oloc
            | None -> false
          in
          if buffered then
            let t0 = now () in
            on_quiet ctx (fun () ->
                stall p Wo_obs.Stall.Rmw_order (now () - t0);
                gated ())
          else if loc_busy ctx r.Memsys.oloc then begin
            let t0 = now () in
            (loc_state ctx r.Memsys.oloc).loc_waiters <-
              (fun () ->
                stall p Wo_obs.Stall.Rmw_order (now () - t0);
                gated ())
              :: (loc_state ctx r.Memsys.oloc).loc_waiters
          end
          else issue_rmw r f
        in
        gated ()
      | `Write v -> (
        match ctx.buffer with
        | Some b when not (sync && config.flush_buffer_on_sync) ->
          (* Buffered write: commits on deposit (forwarding could
             dispatch its value); globally performed at the module. *)
          let tag = Flat_memory.expect mem r ignore in
          let entry = { Wo_cache.Write_buffer.loc = r.Memsys.oloc; value = v; tag } in
          if Wo_cache.Write_buffer.push b entry then begin
            r.Memsys.committed <- now ();
            Driver.resume env p ~store:None ~delay:1;
            drain p ctx
          end
          else begin
            let t0 = now () in
            Wo_cache.Write_buffer.on_not_full b (fun () ->
                stall p Wo_obs.Stall.Buffer_full (now () - t0);
                ignore (Wo_cache.Write_buffer.push b entry);
                r.Memsys.committed <- now ();
                Driver.resume env p ~store:None ~delay:1;
                drain p ctx)
          end
        | _ ->
          issue_plain_write r v ~wait:(config.wait_write_ack || sync))
    in
    if sync && config.flush_buffer_on_sync then begin
      (* Fence semantics: drain the buffer and wait for every outstanding
         acknowledgement before synchronizing. *)
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
        drain p ctx;
        Driver.resume env p ~store:None ~delay:1)
  in
  let proc_status p =
    let ctx = ctxs.(p) in
    let buf =
      match ctx.buffer with
      | None -> "-"
      | Some b ->
        Printf.sprintf "%d/%d" (Wo_cache.Write_buffer.size b)
          (Wo_cache.Write_buffer.depth b)
    in
    let inflight =
      Hashtbl.fold
        (fun loc ls acc ->
          if ls.in_flight || not (Queue.is_empty ls.pending_sends) then
            loc :: acc
          else acc)
        ctx.loc_states []
      |> List.sort compare |> List.map string_of_int |> String.concat ","
    in
    Printf.sprintf "acks=%d buf=%s inflight=%s" ctx.outstanding_acks buf
      inflight
  in
  Flat_memory.port mem ~perform ~fence ~proc_status
    ~quiet:(fun p -> quiet ctxs.(p))

let make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    (config : config) : Machine.t =
  if config.modules <= 0 then invalid_arg "Uncached.make: modules must be positive";
  Driver.make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    ~local_cost:config.local_cost ~build:(build config)
