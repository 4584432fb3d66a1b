open Wo_prog
module Int_map = Map.Make (Int)

exception Local_divergence = Cinterp.Local_divergence

let max_local_steps = 100_000

type thread = { env : int Int_map.t; code : Instr.t list }

type state = {
  program : Program.t;
  threads : thread array;
  memory : int Int_map.t;
  next_event_id : int;
  seqs : int array;
  events_rev : Wo_core.Event.t list;
}

let init program =
  let n = Program.num_procs program in
  {
    program;
    threads =
      Array.init n (fun p ->
          { env = Int_map.empty; code = program.Program.threads.(p) });
    memory =
      List.fold_left
        (fun m (l, v) -> Int_map.add l v m)
        Int_map.empty program.Program.initial;
    next_event_id = 0;
    seqs = Array.make n 0;
    events_rev = [];
  }

let lookup_reg env r =
  match Int_map.find_opt r env with Some v -> v | None -> 0

let read_mem state loc =
  match Int_map.find_opt loc state.memory with
  | Some v -> v
  | None -> Program.initial_value state.program loc

let runnable state =
  (* Called once per enumeration node; a single backwards scan building the
     result directly avoids the intermediate list a map/filter pipeline
     would allocate. *)
  let rec go p acc =
    if p < 0 then acc
    else
      go (p - 1)
        (if state.threads.(p).code <> [] then p :: acc else acc)
  in
  go (Array.length state.threads - 1) []

let finished state =
  let rec go p =
    p < 0 || (state.threads.(p).code = [] && go (p - 1))
  in
  go (Array.length state.threads - 1)

(* Execute one memory instruction atomically, producing the event and the
   updated thread environment and memory. *)
let exec_memory state (th : thread) proc instr rest =
  let env r = lookup_reg th.env r in
  let seq = state.seqs.(proc) in
  let id = state.next_event_id in
  let mk kind loc ?read_value ?written_value () =
    Wo_core.Event.make ~id ~proc ~seq ~kind ~loc ?read_value ?written_value ()
  in
  let ev, env', mem' =
    match instr with
    | Instr.Read (r, loc) ->
      let v = read_mem state loc in
      (mk Wo_core.Event.Data_read loc ~read_value:v (), Int_map.add r v th.env, state.memory)
    | Instr.Sync_read (r, loc) ->
      let v = read_mem state loc in
      (mk Wo_core.Event.Sync_read loc ~read_value:v (), Int_map.add r v th.env, state.memory)
    | Instr.Write (loc, e) ->
      let v = Instr.eval_expr env e in
      (mk Wo_core.Event.Data_write loc ~written_value:v (), th.env, Int_map.add loc v state.memory)
    | Instr.Sync_write (loc, e) ->
      let v = Instr.eval_expr env e in
      (mk Wo_core.Event.Sync_write loc ~written_value:v (), th.env, Int_map.add loc v state.memory)
    | Instr.Test_and_set (r, loc) ->
      let old = read_mem state loc in
      ( mk Wo_core.Event.Sync_rmw loc ~read_value:old ~written_value:1 (),
        Int_map.add r old th.env,
        Int_map.add loc 1 state.memory )
    | Instr.Fetch_and_add (r, loc, e) ->
      let old = read_mem state loc in
      let v = old + Instr.eval_expr env e in
      ( mk Wo_core.Event.Sync_rmw loc ~read_value:old ~written_value:v (),
        Int_map.add r old th.env,
        Int_map.add loc v state.memory )
    | Instr.Assign _ | Instr.If _ | Instr.While _ | Instr.Nop | Instr.Fence ->
      invalid_arg "exec_memory: not a memory instruction"
  in
  let threads = Array.copy state.threads in
  threads.(proc) <- { env = env'; code = rest };
  let seqs = Array.copy state.seqs in
  seqs.(proc) <- seq + 1;
  ( {
      state with
      threads;
      memory = mem';
      next_event_id = id + 1;
      seqs;
      events_rev = ev :: state.events_rev;
    },
    Some ev )

(* Unfold local control flow until a memory instruction or termination. *)
let advance proc env code budget0 =
  let rec go env code budget =
    if budget = 0 then raise (Local_divergence proc);
    match code with
    | [] -> `Finished env
    | Instr.Assign (r, e) :: rest ->
      go (Int_map.add r (Instr.eval_expr (lookup_reg env) e) env) rest (budget - 1)
    | Instr.Nop :: rest -> go env rest (budget - 1)
    | Instr.Fence :: rest ->
      (* every access is already atomic and in program order here *)
      go env rest (budget - 1)
    | Instr.If (c, a, b) :: rest ->
      let branch = if Instr.eval_cond (lookup_reg env) c then a else b in
      go env (branch @ rest) (budget - 1)
    | Instr.While (c, body) :: rest ->
      if Instr.eval_cond (lookup_reg env) c then
        go env (body @ (Instr.While (c, body) :: rest)) (budget - 1)
      else go env rest (budget - 1)
    | (Instr.Read _ | Instr.Write _ | Instr.Sync_read _ | Instr.Sync_write _
      | Instr.Test_and_set _ | Instr.Fetch_and_add _) as instr :: rest ->
      `Memory (env, instr, rest)
  in
  go env code budget0

type access = Cinterp.access = {
  loc : Wo_core.Event.loc;
  writes : bool;
  sync : bool;
}

let peek state proc =
  let th = state.threads.(proc) in
  match advance proc th.env th.code max_local_steps with
  | `Finished _ -> None
  | `Memory (_, instr, _) ->
    Some
      (match instr with
      | Instr.Read (_, loc) -> { loc; writes = false; sync = false }
      | Instr.Write (loc, _) -> { loc; writes = true; sync = false }
      | Instr.Sync_read (_, loc) -> { loc; writes = false; sync = true }
      | Instr.Sync_write (loc, _) -> { loc; writes = true; sync = true }
      | Instr.Test_and_set (_, loc) | Instr.Fetch_and_add (_, loc, _) ->
        { loc; writes = true; sync = true }
      | Instr.Assign _ | Instr.If _ | Instr.While _ | Instr.Nop
      | Instr.Fence ->
        assert false)

let step state proc =
  let th = state.threads.(proc) in
  if th.code = [] then invalid_arg "Interp.step: processor already finished";
  match advance proc th.env th.code max_local_steps with
  | `Finished env ->
    let threads = Array.copy state.threads in
    threads.(proc) <- { env; code = [] };
    ({ state with threads }, None)
  | `Memory (env, instr, rest) ->
    exec_memory state { th with env } proc instr rest

let memory state =
  List.map (fun l -> (l, read_mem state l)) (Program.locs state.program)

type view = {
  v_envs : (Instr.reg * int) list array;
  v_codes : Instr.t list array;
  v_memory : (Wo_core.Event.loc * Wo_core.Event.value) list;
  v_events : int;
}

let view state =
  {
    v_envs = Array.map (fun th -> Int_map.bindings th.env) state.threads;
    v_codes = Array.map (fun th -> th.code) state.threads;
    v_memory = memory state;
    v_events = state.next_event_id;
  }

let events_so_far state = state.next_event_id

let outcome state =
  let observable p r =
    match state.program.Program.observable with
    | None -> true
    | Some l -> List.mem (p, r) l
  in
  let registers =
    Array.to_list state.threads
    |> List.mapi (fun p (th : thread) ->
           Instr.regs state.program.Program.threads.(p)
           |> List.filter (observable p)
           |> List.map (fun r -> (p, r, lookup_reg th.env r)))
    |> List.concat
  in
  Outcome.make ~registers ~memory:(memory state)

let execution state =
  Wo_core.Execution.of_ordered_events (List.rev state.events_rev)

let first_runnable state =
  match runnable state with [] -> None | p :: _ -> Some p

let run ~sched program =
  let rec go state =
    if finished state then state
    else begin
      let proc =
        match sched state with
        | Some p when List.mem p (runnable state) -> p
        | _ -> Option.get (first_runnable state)
      in
      let state, _ev = step state proc in
      go state
    end
  in
  go (init program)

let run_round_robin program =
  let counter = ref (-1) in
  let sched state =
    let rs = runnable state in
    incr counter;
    match rs with
    | [] -> None
    | _ -> Some (List.nth rs (!counter mod List.length rs))
  in
  run ~sched program

let run_random ~seed program =
  let rng = Random.State.make [| seed |] in
  let sched state =
    match runnable state with
    | [] -> None
    | rs -> Some (List.nth rs (Random.State.int rng (List.length rs)))
  in
  run ~sched program
