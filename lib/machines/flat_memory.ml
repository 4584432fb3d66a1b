(* The memory side of the cache-less machines: module-interleaved flat
   memory behind the fabric, the tagged request/reply protocol, and the
   processor-side reply dispatch.  {!Uncached} and {!Ordering} add only
   their write paths. *)

type msg =
  | M_read of { loc : Wo_core.Event.loc; proc : int; tag : int }
  | M_write of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      proc : int;
      tag : int;
    }
  | M_rmw of {
      loc : Wo_core.Event.loc;
      f : Wo_core.Event.rmw;
      proc : int;
      tag : int;
    }
  | M_read_reply of { tag : int; value : Wo_core.Event.value; applied_at : int }
  | M_write_ack of { tag : int; applied_at : int }
  | M_rmw_reply of { tag : int; old : Wo_core.Event.value; applied_at : int }

let tags = [| "Read"; "Write"; "Rmw"; "ReadReply"; "WriteAck"; "RmwReply" |]

let tag_index = function
  | M_read _ -> 0
  | M_write _ -> 1
  | M_rmw _ -> 2
  | M_read_reply _ -> 3
  | M_write_ack _ -> 4
  | M_rmw_reply _ -> 5

type t = {
  env : Driver.env;
  fabric : msg Wo_interconnect.Fabric.t;
  modules : int;
  memory : (Wo_core.Event.loc, Wo_core.Event.value) Hashtbl.t;
  mutable next_tag : int;
  by_tag : (int, Memsys.op * (Memsys.op -> unit)) Hashtbl.t;
}

let read_memory t loc =
  match Hashtbl.find_opt t.memory loc with
  | Some v -> v
  | None -> Wo_prog.Program.initial_value t.env.Driver.program loc

let module_node t loc = t.env.Driver.num_procs + (loc mod t.modules)

let create (env : Driver.env) ~modules fabric_kind =
  let fabric = Driver.fabric env ~tags ~tag_index fabric_kind in
  let t =
    {
      env;
      fabric;
      modules;
      memory = Hashtbl.create 64;
      next_tag = 0;
      by_tag = Hashtbl.create 64;
    }
  in
  let now () = Wo_sim.Engine.now env.Driver.engine in
  let send = fabric.Wo_interconnect.Fabric.send in
  (* Memory modules: apply operations in arrival order, atomically. *)
  for m = 0 to modules - 1 do
    let node = env.Driver.num_procs + m in
    fabric.Wo_interconnect.Fabric.connect ~node (function
      | M_read { loc; proc; tag } ->
        send ~src:node ~dst:proc
          (M_read_reply { tag; value = read_memory t loc; applied_at = now () })
      | M_write { loc; value; proc; tag } ->
        Hashtbl.replace t.memory loc value;
        send ~src:node ~dst:proc (M_write_ack { tag; applied_at = now () })
      | M_rmw { loc; f; proc; tag } ->
        let old = read_memory t loc in
        Hashtbl.replace t.memory loc (Wo_core.Event.apply_rmw f old);
        send ~src:node ~dst:proc (M_rmw_reply { tag; old; applied_at = now () })
      | M_read_reply _ | M_write_ack _ | M_rmw_reply _ ->
        raise (Machine.Machine_error "memory module received a reply"))
  done;
  (* Module replies dispatch through the tag table. *)
  let complete tag fill =
    match Hashtbl.find_opt t.by_tag tag with
    | None -> raise (Machine.Machine_error "unknown reply tag")
    | Some (r, k) ->
      Hashtbl.remove t.by_tag tag;
      fill r;
      k r
  in
  for p = 0 to env.Driver.num_procs - 1 do
    fabric.Wo_interconnect.Fabric.connect ~node:p (function
      | M_read_reply { tag; value = v; applied_at }
      | M_rmw_reply { tag; old = v; applied_at } ->
        complete tag (fun (r : Memsys.op) ->
            r.Memsys.rv <- Some v;
            r.Memsys.committed <- applied_at;
            r.Memsys.performed <- applied_at)
      | M_write_ack { tag; applied_at } ->
        complete tag (fun (r : Memsys.op) ->
            if r.Memsys.committed < 0 then r.Memsys.committed <- applied_at;
            r.Memsys.performed <- applied_at)
      | M_read _ | M_write _ | M_rmw _ ->
        raise (Machine.Machine_error "processor received a request"))
  done;
  (* Session reset: back to the just-built state.  Hashtbl.reset (not
     clear) restores initial capacity, so the tables regrow exactly as a
     fresh build's would. *)
  Driver.on_reset env (fun () ->
      Hashtbl.reset t.memory;
      t.next_tag <- 0;
      Hashtbl.reset t.by_tag);
  t

let expect t r k =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  Hashtbl.replace t.by_tag tag (r, k);
  tag

let rebind t tag k =
  let r, _ = Hashtbl.find t.by_tag tag in
  Hashtbl.replace t.by_tag tag (r, k)

let send_write t ~proc ~tag loc value =
  t.fabric.Wo_interconnect.Fabric.send ~src:proc ~dst:(module_node t loc)
    (M_write { loc; value; proc; tag })

let write t ~proc (r : Memsys.op) v k =
  send_write t ~proc ~tag:(expect t r k) r.Memsys.oloc v

let resume_with_value t ~proc (op : Proc_frontend.memory_op) (r : Memsys.op) =
  let store =
    match (op.Proc_frontend.dest, r.Memsys.rv) with
    | Some reg, Some v -> Some (reg, v)
    | _ -> None
  in
  Driver.resume t.env proc ~store ~delay:1

(* Send a read-type request and, at its reply, charge the wait since
   the send and resume the processor with the value read. *)
let request t ~proc (op : Proc_frontend.memory_op) (r : Memsys.op) ~reason
    ~on_reply msg_of_tag =
  let t0 = Driver.now t.env in
  let tag =
    expect t r (fun r ->
        on_reply ();
        Driver.stall t.env ~proc reason (Driver.now t.env - t0);
        (match (r.Memsys.rv, op.Proc_frontend.payload) with
        | Some old, `Rmw d -> r.Memsys.wv <- Some (Wo_core.Event.apply_rmw d old)
        | _ -> ());
        resume_with_value t ~proc op r)
  in
  t.fabric.Wo_interconnect.Fabric.send ~src:proc
    ~dst:(module_node t r.Memsys.oloc) (msg_of_tag tag)

let sync_or op reason =
  if Wo_core.Event.is_sync_kind op.Proc_frontend.kind then
    Wo_obs.Stall.Sync_commit
  else reason

let read t ~proc op (r : Memsys.op) ~on_reply =
  request t ~proc op r ~reason:(sync_or op Wo_obs.Stall.Read_miss) ~on_reply
    (fun tag -> M_read { loc = r.Memsys.oloc; proc; tag })

let rmw t ~proc op (r : Memsys.op) f ~on_reply =
  request t ~proc op r ~reason:(sync_or op Wo_obs.Stall.Rmw_wait) ~on_reply
    (fun tag -> M_rmw { loc = r.Memsys.oloc; f; proc; tag })

let forward t ~proc (op : Proc_frontend.memory_op) (r : Memsys.op) v =
  let now = Driver.now t.env in
  r.Memsys.rv <- Some v;
  r.Memsys.committed <- now;
  r.Memsys.performed <- now;
  resume_with_value t ~proc op r

let port t ~perform ~fence ~proc_status ~quiet =
  let num_procs = t.env.Driver.num_procs in
  let debug_dump () =
    let b = Buffer.create 256 in
    for p = 0 to num_procs - 1 do
      Printf.bprintf b "P%d: %s quiet=%b\n" p (proc_status p) (quiet p)
    done;
    Printf.bprintf b "unmatched reply tags: %d\n" (Hashtbl.length t.by_tag);
    Buffer.contents b
  in
  let check_drained () =
    for p = 0 to num_procs - 1 do
      if not (quiet p) then
        raise
          (Machine.Machine_error
             (Printf.sprintf "%s: P%d has undrained writes" t.env.Driver.name p))
    done
  in
  {
    Memsys.perform;
    fence;
    final_value = read_memory t;
    proc_status;
    shared_status = (fun () -> "");
    debug_dump;
    check_drained;
  }
