(* The AST processor frontend: the walker Proc_frontend's compiled
   stepping replaced, kept as its oracle.  Walks the Wo_prog.Instr tree
   directly, with a dense sorted-array register file, one instruction
   per engine event. *)

module Instr = Wo_prog.Instr
module F = Wo_machines.Proc_frontend

type status = Running | Blocked | Done

type t = {
  engine : Wo_sim.Engine.t;
  proc : Wo_core.Event.proc;
  local_cost : int;
  perform : F.request -> unit;
  on_finish : unit -> unit;
  mutable code : Instr.t list;
  all_regs : int array;  (* sorted source register ids *)
  regs : int array;  (* parallel to [all_regs] *)
  mutable status : status;
  mutable seq : int;
  (* The [advance] thunk, built once per frontend. *)
  mutable advance_fn : unit -> unit;
}

(* Binary search over the sorted register-id array; -1 if absent. *)
let rec rfind (a : int array) r lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let v = Array.unsafe_get a mid in
    if v = r then mid else if v < r then rfind a r (mid + 1) hi else rfind a r lo mid

let lookup t r =
  let i = rfind t.all_regs r 0 (Array.length t.all_regs) in
  if i < 0 then 0 else Array.unsafe_get t.regs i

(* [Instr.regs] covers every register the code mentions, so stores always
   hit; a miss (impossible for code and ids from the same program) is a
   no-op, matching a read-of-unwritten-register default. *)
let store t r v =
  let i = rfind t.all_regs r 0 (Array.length t.all_regs) in
  if i >= 0 then Array.unsafe_set t.regs i v

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

(* Issue-time markers on the processor's track, as the compiled frontend
   emits them. *)
let note_issue t what =
  let obs = Wo_obs.Recorder.active () in
  if Wo_obs.Recorder.enabled obs then
    Wo_obs.Recorder.instant obs ~cat:Wo_obs.Recorder.Proc ~track:t.proc
      ~name:what ~ts:(Wo_sim.Engine.now t.engine)

let memory_op_of_instr t instr : F.memory_op option =
  let env r = lookup t r in
  match instr with
  | Instr.Read (r, loc) ->
    Some { kind = Wo_core.Event.Data_read; loc; payload = `Read; dest = Some r; seq = 0 }
  | Instr.Sync_read (r, loc) ->
    Some { kind = Wo_core.Event.Sync_read; loc; payload = `Read; dest = Some r; seq = 0 }
  | Instr.Write (loc, e) ->
    Some
      {
        kind = Wo_core.Event.Data_write;
        loc;
        payload = `Write (Instr.eval_expr env e);
        dest = None;
        seq = 0;
      }
  | Instr.Sync_write (loc, e) ->
    Some
      {
        kind = Wo_core.Event.Sync_write;
        loc;
        payload = `Write (Instr.eval_expr env e);
        dest = None;
        seq = 0;
      }
  | Instr.Test_and_set (r, loc) ->
    Some
      {
        kind = Wo_core.Event.Sync_rmw;
        loc;
        payload = `Rmw Wo_core.Event.Rmw_tas;
        dest = Some r;
        seq = 0;
      }
  | Instr.Fetch_and_add (r, loc, e) ->
    let addend = Instr.eval_expr env e in
    Some
      {
        kind = Wo_core.Event.Sync_rmw;
        loc;
        payload = `Rmw (Wo_core.Event.Rmw_faa addend);
        dest = Some r;
        seq = 0;
      }
  | Instr.Assign _ | Instr.If _ | Instr.While _ | Instr.Nop | Instr.Fence ->
    None

let rec advance t =
  match t.code with
  | [] ->
    if t.status <> Done then begin
      t.status <- Done;
      note_issue t "finish";
      t.on_finish ()
    end
  | instr :: rest -> (
    match memory_op_of_instr t instr with
    | Some op ->
      t.code <- rest;
      t.status <- Blocked;
      (if Wo_obs.Recorder.enabled (Wo_obs.Recorder.active ()) then
         note_issue t
           (Format.asprintf "issue.%a.%a" Wo_core.Event.pp_kind op.kind
              Wo_core.Event.pp_loc op.loc));
      t.perform (F.Access { op with seq = next_seq t })
    | None -> (
      match instr with
      | Instr.Fence ->
        t.code <- rest;
        t.status <- Blocked;
        note_issue t "issue.fence";
        t.perform F.Fence
      | _ ->
        let env r = lookup t r in
        (match instr with
        | Instr.Assign (r, e) ->
          store t r (Instr.eval_expr env e);
          t.code <- rest
        | Instr.Nop -> t.code <- rest
        | Instr.If (c, a, b) ->
          t.code <- (if Instr.eval_cond env c then a else b) @ rest
        | Instr.While (c, body) ->
          if Instr.eval_cond env c then t.code <- body @ (instr :: rest)
          else t.code <- rest
        | Instr.Read _ | Instr.Write _ | Instr.Sync_read _
        | Instr.Sync_write _ | Instr.Test_and_set _ | Instr.Fetch_and_add _
        | Instr.Fence ->
          assert false);
        schedule_advance t ~delay:t.local_cost))

and schedule_advance t ~delay =
  t.status <- Running;
  Wo_sim.Engine.schedule t.engine ~delay t.advance_fn

let create ~engine ~proc ~code ?(local_cost = 1) ~perform ~on_finish () =
  let all_regs = Array.of_list (Instr.regs code) in
  let t =
    {
      engine;
      proc;
      local_cost;
      perform;
      on_finish;
      code;
      all_regs;
      regs = Array.make (max 1 (Array.length all_regs)) 0;
      status = Blocked;
      seq = 0;
      advance_fn = ignore;
    }
  in
  t.advance_fn <- (fun () -> advance t);
  t

let start t = schedule_advance t ~delay:0

let resume t ~store:st ~delay =
  if t.status <> Blocked then
    invalid_arg "Ast_frontend.resume: processor is not blocked";
  (match st with Some (r, v) -> store t r v | None -> ());
  schedule_advance t ~delay

let finished t = t.status = Done

let registers t =
  List.init (Array.length t.all_regs) (fun i -> (t.all_regs.(i), t.regs.(i)))
