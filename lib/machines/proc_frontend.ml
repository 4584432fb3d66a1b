module P = Wo_prog.Prog_compile

type memory_op = {
  kind : Wo_core.Event.kind;
  loc : Wo_core.Event.loc;
  payload : [ `Read | `Write of Wo_core.Event.value | `Rmw of Wo_core.Event.rmw ];
  dest : Wo_prog.Instr.reg option;
  seq : int;
}

type request = Access of memory_op | Fence

type status = Running | Blocked | Done

type t = {
  engine : Wo_sim.Engine.t;
  proc : Wo_core.Event.proc;
  local_cost : int;
  perform : request -> unit;
  on_finish : unit -> unit;
  (* One thread's view of the bound {!Wo_prog.Prog_compile} artifact.
     [regs] is the full flat register file so expression ids (which name
     flat registers) evaluate without translation; this thread only ever
     touches its own slice. *)
  mutable art : P.t;
  mutable ccode : int array;  (* art.code.(proc) *)
  mutable clen : int;
  mutable stack : int array;  (* postfix scratch, length >= art.max_stack *)
  mutable regs : int array;
  mutable pc : int;
  mutable status : status;
  mutable seq : int;
  (* The [advance] thunk, built once per frontend: local ops schedule it
     on every step, and a fresh closure per event is the dominant
     allocation of the hot loop. *)
  mutable advance_fn : unit -> unit;
  (* Remaining inline local steps before the walker must yield a real
     engine event (see [advance_local]). *)
  mutable fuse_budget : int;
}

(* The walker may execute this many consecutive local ops inline (via
   [Engine.try_step_inline]) before yielding one real event; the yield
   keeps [Engine.run]'s event-limit watchdog able to observe a
   purely-local runaway loop.  Results are identical at any value. *)
let fuse_budget_max = 256

(* Register and stack storage is reused when shapes match, so rebinding
   to the same program allocates nothing. *)
let bind t (art : P.t) =
  let ccode = art.P.code.(t.proc) in
  if Array.length t.regs <> max 1 art.P.nregs then
    t.regs <- Array.make (max 1 art.P.nregs) 0;
  if Array.length t.stack < art.P.max_stack then
    t.stack <- Array.make (max 1 art.P.max_stack) 0;
  t.art <- art;
  t.ccode <- ccode;
  t.clen <- Array.length ccode

let reset t =
  t.status <- Blocked;
  t.seq <- 0;
  t.fuse_budget <- fuse_budget_max;
  Array.fill t.regs 0 (Array.length t.regs) 0;
  t.pc <- 0

let rebind t art =
  bind t art;
  reset t

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

(* Issue-time markers on the processor's track (spans covering each
   operation's lifetime are emitted machine-side, where completion times
   are known). *)
let note_issue t what =
  let obs = Wo_obs.Recorder.active () in
  if Wo_obs.Recorder.enabled obs then
    Wo_obs.Recorder.instant obs ~cat:Wo_obs.Recorder.Proc ~track:t.proc
      ~name:what ~ts:(Wo_sim.Engine.now t.engine)

(* --- expression evaluation ------------------------------------------------- *)

(* [sp] rides as a parameter of a zero-free-variable loop, not a [ref]:
   the classic compiler boxes refs (and heap-allocates closures for
   local recursive functions that capture), and one box per evaluated
   expression is measurable on compute-heavy programs. *)
let rec postfix_step stack pool regs off len i sp =
  if i = len then Array.unsafe_get stack 0
  else begin
    let base = off + (2 * i) in
    let tag = Array.unsafe_get pool base in
    if tag = P.p_const then begin
      Array.unsafe_set stack sp (Array.unsafe_get pool (base + 1));
      postfix_step stack pool regs off len (i + 1) (sp + 1)
    end
    else if tag = P.p_reg then begin
      Array.unsafe_set stack sp
        (Array.unsafe_get regs (Array.unsafe_get pool (base + 1)));
      postfix_step stack pool regs off len (i + 1) (sp + 1)
    end
    else begin
      let b = Array.unsafe_get stack (sp - 1) in
      let a = Array.unsafe_get stack (sp - 2) in
      let v =
        if tag = P.p_add then a + b
        else if tag = P.p_sub then a - b
        else if tag = P.p_mul then a * b
        else if tag = P.p_eq then if a = b then 1 else 0
        else if tag = P.p_ne then if a <> b then 1 else 0
        else if tag = P.p_lt then if a < b then 1 else 0
        else if a <= b then 1
        else 0
      in
      Array.unsafe_set stack (sp - 2) v;
      postfix_step stack pool regs off len (i + 1) (sp - 1)
    end
  end

let eval_postfix t e =
  let art = t.art in
  postfix_step t.stack art.P.epool t.regs art.P.e_arg.(e) art.P.e_len.(e) 0 0

let ceval t e =
  let art = t.art in
  let k = Array.unsafe_get art.P.e_kind e in
  if k = P.e_const then Array.unsafe_get art.P.e_arg e
  else if k = P.e_reg then Array.unsafe_get t.regs (Array.unsafe_get art.P.e_arg e)
  else eval_postfix t e

(* Unconditional jumps are resolved for free at the start of an advance,
   mirroring the test-only AST walker, where the join after an [If] and
   the back edge of a [While] cost nothing.
   Chains are acyclic: back edges always target a [jif]. *)
let rec resolve_jmp_in (ccode : int array) clen pc =
  if pc < clen && Array.unsafe_get ccode pc = P.o_jmp then
    resolve_jmp_in ccode clen (Array.unsafe_get ccode (pc + 1))
  else pc

(* One instruction per engine event: local ops re-schedule at
   [local_cost]; memory ops and fences block synchronously inside the
   event. *)
let rec advance t =
  let pc = resolve_jmp_in t.ccode t.clen t.pc in
  t.pc <- pc;
  if pc >= t.clen then begin
    if t.status <> Done then begin
      t.status <- Done;
      note_issue t "finish";
      t.on_finish ()
    end
  end
  else begin
    let code = t.ccode in
    let op = Array.unsafe_get code pc in
    if op <= P.o_faa then begin
      let a = code.(pc + 1) and b = code.(pc + 2) in
      let kind, loc, payload, dest =
        if op = P.o_read then
          (Wo_core.Event.Data_read, t.art.P.locs.(b), `Read, Some a)
        else if op = P.o_write then
          (Wo_core.Event.Data_write, t.art.P.locs.(a), `Write (ceval t b), None)
        else if op = P.o_sync_read then
          (Wo_core.Event.Sync_read, t.art.P.locs.(b), `Read, Some a)
        else if op = P.o_sync_write then
          ( Wo_core.Event.Sync_write,
            t.art.P.locs.(a),
            `Write (ceval t b),
            None )
        else if op = P.o_tas then
          (Wo_core.Event.Sync_rmw, t.art.P.locs.(b), `Rmw Wo_core.Event.Rmw_tas, Some a)
        else
          ( Wo_core.Event.Sync_rmw,
            t.art.P.locs.(b),
            `Rmw (Wo_core.Event.Rmw_faa (ceval t code.(pc + 3))),
            Some a )
      in
      t.pc <- pc + P.op_stride;
      t.status <- Blocked;
      (if Wo_obs.Recorder.enabled (Wo_obs.Recorder.active ()) then
         note_issue t
           (Format.asprintf "issue.%a.%a" Wo_core.Event.pp_kind kind
              Wo_core.Event.pp_loc loc));
      t.perform (Access { kind; loc; payload; dest; seq = next_seq t })
    end
    else if op = P.o_fence then begin
      t.pc <- pc + P.op_stride;
      t.status <- Blocked;
      note_issue t "issue.fence";
      t.perform Fence
    end
    else begin
      (if op = P.o_assign then begin
         t.regs.(code.(pc + 1)) <- ceval t code.(pc + 2);
         t.pc <- pc + P.op_stride
       end
       else if op = P.o_jif then
         t.pc <-
           (if ceval t code.(pc + 1) <> 0 then pc + P.op_stride
            else code.(pc + 2))
       else (* o_nop *) t.pc <- pc + P.op_stride);
      advance_local t
    end
  end

(* Local-op continuation.  A local op's next step is a self-reschedule at
   [local_cost]; when the engine certifies that nothing else is due
   first, the step runs inline — int-decoded stepping without a heap
   round-trip per instruction — with results bit-identical to the evented
   path (see [Engine.try_step_inline]).  Tail calls throughout: a fused
   run of local ops consumes no stack. *)
and advance_local t =
  if
    t.fuse_budget > 0
    && Wo_sim.Engine.try_step_inline t.engine ~delay:t.local_cost
  then begin
    t.fuse_budget <- t.fuse_budget - 1;
    advance t
  end
  else begin
    t.fuse_budget <- fuse_budget_max;
    schedule_advance t ~delay:t.local_cost
  end

and schedule_advance t ~delay =
  t.status <- Running;
  Wo_sim.Engine.schedule t.engine ~delay t.advance_fn

let create ~engine ~proc ~compiled ?(local_cost = 1) ~perform ~on_finish () =
  let t =
    {
      engine;
      proc;
      local_cost;
      perform;
      on_finish;
      art = compiled;
      ccode = [||];
      clen = 0;
      stack = [||];
      regs = [||];
      pc = 0;
      status = Blocked;
      seq = 0;
      advance_fn = ignore;
      fuse_budget = fuse_budget_max;
    }
  in
  t.advance_fn <- (fun () -> advance t);
  bind t compiled;
  t

let start t = schedule_advance t ~delay:0

let resume t ~store ~delay =
  if t.status <> Blocked then
    invalid_arg "Proc_frontend.resume: processor is not blocked";
  (match store with
  | Some (r, v) -> t.regs.(r) <- v  (* dest carries a flat register index *)
  | None -> ());
  schedule_advance t ~delay

let finished t = t.status = Done
let blocked t = t.status = Blocked
let proc t = t.proc

let registers t =
  let ids = t.art.P.reg_ids.(t.proc) in
  let base = t.art.P.reg_base.(t.proc) in
  List.init (Array.length ids) (fun i -> (ids.(i), t.regs.(base + i)))

(* The operation at [pc], as the trace and the issue markers name it. *)
let describe_op t pc =
  let code = t.ccode in
  let op = code.(pc) in
  if op = P.o_fence then "fence"
  else
    let kind, li =
      if op = P.o_read then (Wo_core.Event.Data_read, code.(pc + 2))
      else if op = P.o_write then (Wo_core.Event.Data_write, code.(pc + 1))
      else if op = P.o_sync_read then (Wo_core.Event.Sync_read, code.(pc + 2))
      else if op = P.o_sync_write then (Wo_core.Event.Sync_write, code.(pc + 1))
      else (Wo_core.Event.Sync_rmw, code.(pc + 2))
    in
    Format.asprintf "%a %a" Wo_core.Event.pp_kind kind Wo_core.Event.pp_loc
      t.art.P.locs.(li)

let current_position t =
  match t.status with
  | Done -> "finished"
  | Blocked when t.pc > 0 ->
    (* A blocking op leaves [pc] just past itself until resumed. *)
    Printf.sprintf "blocked on %s (pc %d/%d, seq %d)"
      (describe_op t (t.pc - P.op_stride))
      t.pc t.clen t.seq
  | Blocked -> Printf.sprintf "not started (pc 0/%d)" t.clen
  | Running ->
    if t.pc >= t.clen then "at end, running"
    else Printf.sprintf "running at pc %d/%d (seq %d)" t.pc t.clen t.seq
