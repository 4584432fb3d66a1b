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

(* Messages between processors and memory modules. *)
type amsg =
  | M_read of { loc : Wo_core.Event.loc; proc : int; tag : int }
  | M_write of { loc : Wo_core.Event.loc; value : Wo_core.Event.value; proc : int; tag : int }
  | M_rmw of {
      loc : Wo_core.Event.loc;
      f : Wo_core.Event.rmw;
      proc : int;
      tag : int;
    }
  | M_read_reply of { tag : int; value : Wo_core.Event.value; applied_at : int }
  | M_write_ack of { tag : int; applied_at : int }
  | M_rmw_reply of { tag : int; old : Wo_core.Event.value; applied_at : int }

let amsg_tags = [| "Read"; "Write"; "Rmw"; "ReadReply"; "WriteAck"; "RmwReply" |]

let amsg_tag_index = function
  | M_read _ -> 0
  | M_write _ -> 1
  | M_rmw _ -> 2
  | M_read_reply _ -> 3
  | M_write_ack _ -> 4
  | M_rmw_reply _ -> 5

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

(* The memory system: module-interleaved flat memory behind the fabric,
   optional per-processor write buffers.  Everything machine-generic
   (engine, frontends, run loop, watchdog, trace) lives in {!Driver}. *)
let build (config : config) (env : Driver.env) : Memsys.port =
  let engine = env.Driver.engine in
  let num_procs = env.Driver.num_procs in
  let module_node loc = num_procs + (loc mod config.modules) in
  let fabric =
    Driver.fabric env ~tags:amsg_tags ~tag_index:amsg_tag_index config.fabric
  in
  (* Memory modules: apply operations in arrival order, atomically. *)
  let memory : (Wo_core.Event.loc, Wo_core.Event.value) Hashtbl.t =
    Hashtbl.create 64
  in
  let mem_read loc =
    match Hashtbl.find_opt memory loc with
    | Some v -> v
    | None -> Wo_prog.Program.initial_value env.Driver.program loc
  in
  for m = 0 to config.modules - 1 do
    let node = num_procs + m in
    fabric.Wo_interconnect.Fabric.connect ~node (fun msg ->
        match msg with
        | M_read { loc; proc; tag } ->
          fabric.Wo_interconnect.Fabric.send ~src:node ~dst:proc
            (M_read_reply
               { tag; value = mem_read loc; applied_at = Wo_sim.Engine.now engine })
        | M_write { loc; value; proc; tag } ->
          Hashtbl.replace memory loc value;
          fabric.Wo_interconnect.Fabric.send ~src:node ~dst:proc
            (M_write_ack { tag; applied_at = Wo_sim.Engine.now engine })
        | M_rmw { loc; f; proc; tag } ->
          let old = mem_read loc in
          Hashtbl.replace memory loc (Wo_core.Event.apply_rmw f old);
          fabric.Wo_interconnect.Fabric.send ~src:node ~dst:proc
            (M_rmw_reply { tag; old; applied_at = Wo_sim.Engine.now engine })
        | M_read_reply _ | M_write_ack _ | M_rmw_reply _ ->
          raise (Machine.Machine_error "memory module received a reply"))
  done;
  let ctxs =
    Array.init num_procs (fun _ ->
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
  let next_tag = ref 0 in
  let by_tag : (int, Memsys.op * (Memsys.op -> unit)) Hashtbl.t =
    Hashtbl.create 64
  in
  (* Session reset: back to the just-built state.  Hashtbl.reset (not
     clear) restores initial capacity, so the tables regrow exactly as a
     fresh build's would. *)
  Driver.on_reset env (fun () ->
      Hashtbl.reset memory;
      next_tag := 0;
      Hashtbl.reset by_tag;
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
  let send_with_reply p msg_of_tag (r : Memsys.op) k =
    let tag = !next_tag in
    incr next_tag;
    Hashtbl.replace by_tag tag (r, k);
    fabric.Wo_interconnect.Fabric.send ~src:p ~dst:(module_node r.Memsys.oloc)
      (msg_of_tag tag)
  in
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
          let r, _ = Hashtbl.find by_tag entry.Wo_cache.Write_buffer.tag in
          Hashtbl.replace by_tag entry.Wo_cache.Write_buffer.tag
            ( r,
              fun r ->
                ctx.drain_active <- false;
                ctx.outstanding_acks <- ctx.outstanding_acks - 1;
                ignore r;
                write_acked ctx entry.Wo_cache.Write_buffer.loc;
                Wo_cache.Write_buffer.notify b;
                drain p ctx );
          let delay =
            match config.write_buffer with
            | Some bc -> max 0 bc.drain_delay
            | None -> 0
          in
          Wo_sim.Engine.schedule engine ~delay (fun () ->
              fabric.Wo_interconnect.Fabric.send ~src:p
                ~dst:(module_node entry.Wo_cache.Write_buffer.loc)
                (M_write
                   {
                     loc = entry.Wo_cache.Write_buffer.loc;
                     value = entry.Wo_cache.Write_buffer.value;
                     proc = p;
                     tag = entry.Wo_cache.Write_buffer.tag;
                   })))
  in
  let perform p (op : Proc_frontend.memory_op) =
    let ctx = ctxs.(p) in
    let now () = Wo_sim.Engine.now engine in
    let sync =
      match op.Proc_frontend.kind with
      | Wo_core.Event.Sync_read | Wo_core.Event.Sync_write
      | Wo_core.Event.Sync_rmw ->
        true
      | Wo_core.Event.Data_read | Wo_core.Event.Data_write -> false
    in
    let issue_read (r : Memsys.op) ~reason =
      ctx.outstanding_acks <- ctx.outstanding_acks + 1;
      send_with_reply p
        (fun tag -> M_read { loc = r.Memsys.oloc; proc = p; tag })
        r
        (fun r ->
          ctx.outstanding_acks <- ctx.outstanding_acks - 1;
          check_quiet ctx;
          stall p reason (now () - r.Memsys.issued);
          let store =
            match (op.Proc_frontend.dest, r.Memsys.rv) with
            | Some reg, Some v -> Some (reg, v)
            | _ -> None
          in
          Driver.resume env p ~store ~delay:1)
    in
    let issue_rmw (r : Memsys.op) ~reason f =
      ctx.outstanding_acks <- ctx.outstanding_acks + 1;
      send_with_reply p
        (fun tag -> M_rmw { loc = r.Memsys.oloc; f; proc = p; tag })
        r
        (fun r ->
          ctx.outstanding_acks <- ctx.outstanding_acks - 1;
          check_quiet ctx;
          stall p reason (now () - r.Memsys.issued);
          (match (r.Memsys.rv, op.Proc_frontend.payload) with
          | Some old, `Rmw d -> r.Memsys.wv <- Some (Wo_core.Event.apply_rmw d old)
          | _ -> ());
          let store =
            match (op.Proc_frontend.dest, r.Memsys.rv) with
            | Some reg, Some v -> Some (reg, v)
            | _ -> None
          in
          Driver.resume env p ~store ~delay:1)
    in
    let issue_plain_write (r : Memsys.op) v ~wait =
      let ls = loc_state ctx r.Memsys.oloc in
      ls.last_value <- v;
      let send () =
        ctx.outstanding_acks <- ctx.outstanding_acks + 1;
        send_with_reply p
          (fun tag -> M_write { loc = r.Memsys.oloc; value = v; proc = p; tag })
          r
          (fun r ->
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
    let forward_read (r : Memsys.op) v =
      r.Memsys.rv <- Some v;
      r.Memsys.committed <- now ();
      r.Memsys.performed <- now ();
      let store = Option.map (fun reg -> (reg, v)) op.Proc_frontend.dest in
      Driver.resume env p ~store ~delay:1
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
          | Some entry -> forward_read r entry.Wo_cache.Write_buffer.value
          | None -> assert false)
        | Some b, Some bc
          when (not bc.forwarding) && Wo_cache.Write_buffer.has_loc b r.Memsys.oloc
          ->
          (* No forwarding: wait until our write to this location has
             reached memory (dependency preservation). *)
          let t0 = now () in
          on_quiet ctx (fun () ->
              stall p Wo_obs.Stall.Buffer_drain (now () - t0);
              issue_read r
                ~reason:(if sync then Wo_obs.Stall.Sync_commit else Wo_obs.Stall.Read_miss))
        | Some b, Some bc
          when (not bc.read_bypass) && not (Wo_cache.Write_buffer.is_empty b)
          ->
          (* No bypass: the read waits for the buffer to drain. *)
          let t0 = now () in
          Wo_cache.Write_buffer.on_empty b (fun () ->
              stall p Wo_obs.Stall.Buffer_drain (now () - t0);
              issue_read r
                ~reason:(if sync then Wo_obs.Stall.Sync_commit else Wo_obs.Stall.Read_miss))
        | _ ->
          if loc_busy ctx r.Memsys.oloc then
            (* A write of ours to this location is still on its way to
               memory: forward its value. *)
            forward_read r (loc_state ctx r.Memsys.oloc).last_value
          else issue_read r
                ~reason:(if sync then Wo_obs.Stall.Sync_commit else Wo_obs.Stall.Read_miss))
      | `Rmw f ->
        let reason = if sync then Wo_obs.Stall.Sync_commit else Wo_obs.Stall.Rmw_wait in
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
          else issue_rmw r ~reason f
        in
        gated ()
      | `Write v -> (
        match ctx.buffer with
        | Some b when not (sync && config.flush_buffer_on_sync) ->
          (* Buffered write: commits on deposit (forwarding could
             dispatch its value); globally performed at the module. *)
          let tag = !next_tag in
          incr next_tag;
          Hashtbl.replace by_tag tag (r, fun _ -> ());
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
  (* Module replies dispatch through the tag table. *)
  Array.iteri
    (fun p _ctx ->
      fabric.Wo_interconnect.Fabric.connect ~node:p (fun msg ->
          let complete tag fill =
            match Hashtbl.find_opt by_tag tag with
            | None -> raise (Machine.Machine_error "unknown reply tag")
            | Some (r, k) ->
              Hashtbl.remove by_tag tag;
              fill r;
              k r
          in
          match msg with
          | M_read_reply { tag; value; applied_at } ->
            complete tag (fun (r : Memsys.op) ->
                r.Memsys.rv <- Some value;
                r.Memsys.committed <- applied_at;
                r.Memsys.performed <- applied_at)
          | M_rmw_reply { tag; old; applied_at } ->
            complete tag (fun (r : Memsys.op) ->
                r.Memsys.rv <- Some old;
                r.Memsys.committed <- applied_at;
                r.Memsys.performed <- applied_at)
          | M_write_ack { tag; applied_at } ->
            complete tag (fun (r : Memsys.op) ->
                if r.Memsys.committed < 0 then r.Memsys.committed <- applied_at;
                r.Memsys.performed <- applied_at)
          | M_read _ | M_write _ | M_rmw _ ->
            raise (Machine.Machine_error "processor received a request")))
    ctxs;
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
  let debug_dump () =
    let b = Buffer.create 256 in
    Array.iteri
      (fun p ctx ->
        Buffer.add_string b
          (Printf.sprintf "P%d: %s quiet=%b\n" p (proc_status p) (quiet ctx)))
      ctxs;
    Buffer.add_string b
      (Printf.sprintf "unmatched reply tags: %d\n" (Hashtbl.length by_tag));
    Buffer.contents b
  in
  let check_drained () =
    Array.iteri
      (fun p ctx ->
        if not (quiet ctx) then
          raise
            (Machine.Machine_error
               (Printf.sprintf "%s: P%d has undrained writes"
                  env.Driver.name p)))
      ctxs
  in
  {
    Memsys.perform;
    fence;
    final_value = mem_read;
    proc_status;
    shared_status = (fun () -> "");
    debug_dump;
    check_drained;
  }

let make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    (config : config) : Machine.t =
  if config.modules <= 0 then invalid_arg "Uncached.make: modules must be positive";
  Driver.make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    ~local_cost:config.local_cost ~build:(build config)
