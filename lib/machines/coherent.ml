module Cache_ctrl = Wo_cache.Cache_ctrl

type gate = Gate_every_op | Gate_sync_only | Gate_never

type sync_wait = Sync_wait_gp | Sync_wait_commit | Sync_wait_none

type policy = {
  pname : string;
  sync_as_data : bool;
  gate : gate;
  sync_wait : sync_wait;
}

let sc_policy =
  {
    pname = "sc";
    sync_as_data = false;
    gate = Gate_every_op;
    sync_wait = Sync_wait_commit;
  }

let def1_policy =
  {
    pname = "def1";
    sync_as_data = false;
    gate = Gate_sync_only;
    sync_wait = Sync_wait_gp;
  }

let def2_policy =
  {
    pname = "def2";
    sync_as_data = false;
    gate = Gate_never;
    sync_wait = Sync_wait_commit;
  }

let relaxed_policy =
  {
    pname = "relaxed";
    sync_as_data = true;
    gate = Gate_never;
    sync_wait = Sync_wait_commit;
  }

type fabric_kind = Memsys.fabric_kind =
  | Bus of { transfer_cycles : int }
  | Net of { base : int; jitter : int }
  | Net_spiky of {
      base : int;
      jitter : int;
      spike_probability : float;
      spike_factor : int;
    }
  | Net_fixed of { latency : int }

type migration = {
  thread : int;        (* which thread moves *)
  before_seq : int;    (* just before its operation with this program-order
                          position *)
  to_cache : int;      (* destination processor/cache *)
  unsafe : bool;       (* skip the Section-5.1 re-scheduling rule (for the
                          ablation experiments) *)
}

type config = {
  fabric : fabric_kind;
  policy : policy;
  cache : Cache_ctrl.config;
  slow_procs : (int * int) list;
  slow_routes : ((int * int) * int) list;
  local_cost : int;
  migrations : migration list;
}

let default_net = Net { base = 4; jitter = 6 }

type proc_ctx = {
  mutable cache_id : int;
      (* which processor's cache this thread currently runs on; changes
         only through migration *)
  mutable gp_outstanding : int;
  mutable gp_zero_waiters : (unit -> unit) list;
}

let access_kind (policy : policy) (op : Proc_frontend.memory_op) :
    Cache_ctrl.access_kind =
  match (op.Proc_frontend.kind, op.Proc_frontend.payload) with
  | Wo_core.Event.Data_read, `Read -> `Data_read
  | Wo_core.Event.Sync_read, `Read ->
    if policy.sync_as_data then `Data_read else `Sync_read
  | Wo_core.Event.Data_write, `Write v -> `Data_write v
  | Wo_core.Event.Sync_write, `Write v ->
    if policy.sync_as_data then `Data_write v else `Sync_write v
  | Wo_core.Event.Sync_rmw, `Rmw f -> `Sync_rmw f
  | _ -> invalid_arg "Coherent.access_kind: malformed memory operation"

(* The coherent memory system: private MSI caches over a full-map
   directory; the ordering policy decides what a processor waits for.
   Everything machine-generic lives in {!Driver}. *)
let build (config : config) (env : Driver.env) : Memsys.port =
  let engine = env.Driver.engine in
  let num_procs = env.Driver.num_procs in
  let num_caches =
    List.fold_left
      (fun m (mg : migration) -> max m (mg.to_cache + 1))
      num_procs config.migrations
  in
  let dir_node = num_caches in
  let fabric =
    Driver.fabric env ~tags:Wo_cache.Msg.tags ~tag_index:Wo_cache.Msg.tag_index
      ~slow_procs:config.slow_procs ~slow_routes:config.slow_routes
      config.fabric
  in
  let s_migrations = Wo_sim.Stats.slot env.Driver.stats "machine.migrations" in
  let directory =
    Wo_cache.Directory.create ~engine ~fabric ~node:dir_node
      ~stats:env.Driver.stats ~obs:env.Driver.obs
      ~initial:(fun loc ->
        (* read through [env]: sessions rebind the program on reset *)
        Wo_prog.Program.initial_value env.Driver.program loc)
      ()
  in
  let caches =
    Array.init num_caches (fun p ->
        Cache_ctrl.create ~engine ~fabric ~node:p ~dir_node
          ~stats:env.Driver.stats ~stalls:env.Driver.stalls ~obs:env.Driver.obs
          config.cache)
  in
  let ctxs =
    Array.init num_procs (fun p ->
        { cache_id = p; gp_outstanding = 0; gp_zero_waiters = [] })
  in
  (* Session reset: directory and cache lines are lazily recreated, so
     dropping them restores the just-built state; contexts return to
     their home caches. *)
  Driver.on_reset env (fun () ->
      Wo_cache.Directory.reset directory;
      Array.iter Cache_ctrl.reset caches;
      Array.iteri
        (fun p ctx ->
          ctx.cache_id <- p;
          ctx.gp_outstanding <- 0;
          ctx.gp_zero_waiters <- [])
        ctxs);
  let cache_of ctx = caches.(ctx.cache_id) in
  let stall_at p reason ~until cycles =
    Driver.stall_at env ~proc:p reason ~until cycles
  in
  let stall p reason cycles = Driver.stall env ~proc:p reason cycles in
  let on_gp_zero ctx k =
    if ctx.gp_outstanding = 0 then k ()
    else ctx.gp_zero_waiters <- k :: ctx.gp_zero_waiters
  in
  let decr_gp ctx =
    ctx.gp_outstanding <- ctx.gp_outstanding - 1;
    assert (ctx.gp_outstanding >= 0);
    if ctx.gp_outstanding = 0 then begin
      let ws = ctx.gp_zero_waiters in
      ctx.gp_zero_waiters <- [];
      List.iter (fun k -> k ()) ws
    end
  in
  let perform_fence p =
    (* proceed only when everything previously issued is globally
       performed *)
    let ctx = ctxs.(p) in
    let t0 = Wo_sim.Engine.now engine in
    on_gp_zero ctx (fun () ->
        stall p Wo_obs.Stall.Counter_drain (Wo_sim.Engine.now engine - t0);
        Driver.resume env p ~store:None ~delay:1)
  in
  let perform p (op : Proc_frontend.memory_op) =
    let ctx = ctxs.(p) in
    let sync = Wo_core.Event.is_sync_kind op.Proc_frontend.kind in
    let issue () =
      let r = Driver.new_op env ~proc:p op in
      ctx.gp_outstanding <- ctx.gp_outstanding + 1;
      (* Decide when the processor proceeds past this operation. *)
      let resume_on =
        if sync && not config.policy.sync_as_data then
          match config.policy.sync_wait with
          | Sync_wait_gp -> `Gp
          | Sync_wait_commit -> `Commit
          | Sync_wait_none -> (
            (* Even lawless hardware must wait for a value it needs. *)
            match op.Proc_frontend.payload with
            | `Read | `Rmw _ -> `Commit
            | `Write _ -> `Issue)
        else
          match op.Proc_frontend.payload with
          | `Read | `Rmw _ -> `Commit (* a value is needed *)
          | `Write _ -> `Issue
      in
      let resume_store () =
        match (op.Proc_frontend.dest, r.Memsys.rv) with
        | Some reg, Some v -> Some (reg, v)
        | _ -> None
      in
      let on_commit ~at value =
        r.Memsys.committed <- at;
        r.Memsys.rv <- value;
        (match (op.Proc_frontend.payload, value) with
        | `Rmw f, Some old -> r.Memsys.wv <- Some (Wo_core.Event.apply_rmw f old)
        | _ -> ());
        match resume_on with
        | `Commit ->
          let reason =
            if sync && not config.policy.sync_as_data then
              Wo_obs.Stall.Sync_commit
            else Wo_obs.Stall.Read_miss
          in
          stall p reason (Wo_sim.Engine.now engine - r.Memsys.issued);
          Driver.resume env p ~store:(resume_store ()) ~delay:1
        | `Gp | `Issue -> ()
      in
      let on_gp () =
        r.Memsys.performed <- Wo_sim.Engine.now engine;
        decr_gp ctx;
        match resume_on with
        | `Gp ->
          (* A Definition-1 synchronization wait has two phases: getting
             the operation committed, then holding the processor until it
             is globally performed — the release-side gating Definition 2
             (and the Section-5.3 hardware) dispenses with.  A read's
             commit time is when its value was bound, possibly before
             this operation issued; only the wait actually spent inside
             [issued, performed] is attributable. *)
          let commit_point = max r.Memsys.issued r.Memsys.committed in
          stall_at p Wo_obs.Stall.Sync_commit ~until:commit_point
            (commit_point - r.Memsys.issued);
          stall_at p Wo_obs.Stall.Release_gate ~until:r.Memsys.performed
            (r.Memsys.performed - commit_point);
          Driver.resume env p ~store:(resume_store ()) ~delay:1
        | `Commit | `Issue -> ()
      in
      Cache_ctrl.access (cache_of ctx) op.Proc_frontend.loc
        (access_kind config.policy op)
        { Cache_ctrl.on_commit; on_gp };
      if resume_on = `Issue then Driver.resume env p ~store:None ~delay:1
    in
    let gated =
      match config.policy.gate with
      | Gate_every_op -> true
      | Gate_sync_only -> sync && not config.policy.sync_as_data
      | Gate_never -> false
    in
    let issue_gated () =
      if gated && ctx.gp_outstanding > 0 then begin
        let t0 = Wo_sim.Engine.now engine in
        (* Waiting for earlier accesses to perform before ISSUING: for a
           synchronization operation this is release gating (Definition
           1, conditions 2/3); for a data operation it is plain
           counter-drain ordering (the SC baseline). *)
        let reason =
          if sync && not config.policy.sync_as_data then
            Wo_obs.Stall.Release_gate
          else Wo_obs.Stall.Counter_drain
        in
        on_gp_zero ctx (fun () ->
            stall p reason (Wo_sim.Engine.now engine - t0);
            issue ())
      end
      else issue ()
    in
    match
      List.find_opt
        (fun (mg : migration) ->
          mg.thread = p && mg.before_seq = op.Proc_frontend.seq)
        config.migrations
    with
    | None -> issue_gated ()
    | Some mg ->
      (* Re-scheduling (5.1): "before a context switch, all previous
         reads of the process have returned their values and all
         previous writes have been globally performed"; footnote 3 also
         stalls the vacated processor until its counter reads zero. *)
      let switch () =
        Wo_sim.Stats.incr_at env.Driver.stats s_migrations;
        ctx.cache_id <- mg.to_cache;
        issue_gated ()
      in
      if mg.unsafe then switch ()
      else begin
        let t0 = Wo_sim.Engine.now engine in
        on_gp_zero ctx (fun () ->
            Cache_ctrl.on_counter_zero (cache_of ctx) (fun () ->
                stall p Wo_obs.Stall.Migration (Wo_sim.Engine.now engine - t0);
                switch ()))
      end
  in
  let proc_status p =
    let ctx = ctxs.(p) in
    Printf.sprintf "out=%d res=%s stalled=%s"
      (Cache_ctrl.outstanding caches.(ctx.cache_id))
      (String.concat ","
         (List.map string_of_int
            (Cache_ctrl.reserved_locs caches.(ctx.cache_id))))
      (String.concat ","
         (List.map
            (fun (l, n) -> Printf.sprintf "%d:%d" l n)
            (Cache_ctrl.stalled_recall_locs caches.(ctx.cache_id))))
  in
  let shared_status () =
    Printf.sprintf "dir_busy=[%s]"
      (Wo_cache.Directory.busy_lines directory
      |> List.map string_of_int |> String.concat ",")
  in
  let debug_dump () =
    String.concat "" (Array.to_list (Array.map Cache_ctrl.debug_dump caches))
    ^ Wo_cache.Directory.debug_dump directory
  in
  let check_drained () =
    Array.iteri
      (fun c cache ->
        if Cache_ctrl.pending_accesses cache <> 0 then
          raise
            (Machine.Machine_error
               (Printf.sprintf "%s: cache %d has uncommitted accesses"
                  env.Driver.name c)))
      caches;
    match Wo_cache.Directory.busy_lines directory with
    | [] -> ()
    | locs ->
      raise
        (Machine.Machine_error
           (Printf.sprintf "%s: directory transactions stuck on %d line(s)"
              env.Driver.name (List.length locs)))
  in
  (* Coherent final memory: the owner's copy for exclusive lines, the
     directory's otherwise. *)
  let final_value loc =
    match Wo_cache.Directory.state_of directory loc with
    | Wo_cache.Directory.Exclusive owner -> (
      match Cache_ctrl.value_of caches.(owner) loc with
      | Some v -> v
      | None -> Wo_cache.Directory.memory_value directory loc)
    | Wo_cache.Directory.Uncached | Wo_cache.Directory.Shared _ ->
      Wo_cache.Directory.memory_value directory loc
  in
  {
    Memsys.perform;
    fence = perform_fence;
    final_value;
    proc_status;
    shared_status;
    debug_dump;
    check_drained;
  }

let make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    (config : config) : Machine.t =
  Driver.make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    ~local_cost:config.local_cost ~build:(build config)
