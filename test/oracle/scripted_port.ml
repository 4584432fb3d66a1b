module F = Wo_machines.Proc_frontend

type frontend = {
  start : unit -> unit;
  resume :
    store:(Wo_prog.Instr.reg * Wo_core.Event.value) option -> delay:int -> unit;
  finished : unit -> bool;
  registers : unit -> (Wo_prog.Instr.reg * Wo_core.Event.value) list;
  source_reg : Wo_prog.Instr.reg -> Wo_prog.Instr.reg;
}

type maker =
  engine:Wo_sim.Engine.t ->
  proc:Wo_core.Event.proc ->
  perform:(F.request -> unit) ->
  on_finish:(unit -> unit) ->
  frontend

let compiled ?local_cost (art : Wo_prog.Prog_compile.t) ~engine ~proc ~perform
    ~on_finish =
  let fe =
    F.create ~engine ~proc ~compiled:art ?local_cost ~perform ~on_finish ()
  in
  let ids = art.Wo_prog.Prog_compile.reg_ids.(proc) in
  let base = art.Wo_prog.Prog_compile.reg_base.(proc) in
  {
    start = (fun () -> F.start fe);
    resume = (fun ~store ~delay -> F.resume fe ~store ~delay);
    finished = (fun () -> F.finished fe);
    registers = (fun () -> F.registers fe);
    source_reg = (fun flat -> ids.(flat - base));
  }

let ast ?local_cost (program : Wo_prog.Program.t) ~engine ~proc ~perform
    ~on_finish =
  let fe =
    Ast_frontend.create ~engine ~proc
      ~code:program.Wo_prog.Program.threads.(proc)
      ?local_cost ~perform ~on_finish ()
  in
  {
    start = (fun () -> Ast_frontend.start fe);
    resume = (fun ~store ~delay -> Ast_frontend.resume fe ~store ~delay);
    finished = (fun () -> Ast_frontend.finished fe);
    registers = (fun () -> Ast_frontend.registers fe);
    source_reg = Fun.id;
  }

type run = {
  requests : (int * Wo_core.Event.proc * F.request) list;
  registers : (Wo_prog.Instr.reg * Wo_core.Event.value) list array;
  finish : int array;
  end_time : int;
}

let run ?(max_delay = 3) ~seed (program : Wo_prog.Program.t) (build : maker)
    =
  let engine = Wo_sim.Engine.create () in
  let rng = Wo_sim.Rng.make seed in
  let mem = Hashtbl.create 16 in
  List.iter (fun (l, v) -> Hashtbl.replace mem l v) program.Wo_prog.Program.initial;
  let load l = Option.value ~default:0 (Hashtbl.find_opt mem l) in
  let n = Wo_prog.Program.num_procs program in
  let finish = Array.make n (-1) in
  let log = ref [] in
  let fes = ref [||] in
  let perform p req =
    let (fe : frontend) = !fes.(p) in
    let now = Wo_sim.Engine.now engine in
    let store =
      match req with
      | F.Fence ->
        log := (now, p, req) :: !log;
        None
      | F.Access op ->
        log :=
          (now, p, F.Access { op with dest = Option.map fe.source_reg op.dest })
          :: !log;
        let old = load op.loc in
        (match op.payload with
        | `Read -> ()
        | `Write v -> Hashtbl.replace mem op.loc v
        | `Rmw rmw -> Hashtbl.replace mem op.loc (Wo_core.Event.apply_rmw rmw old));
        Option.map (fun r -> (r, old)) op.dest
    in
    fe.resume ~store ~delay:(Wo_sim.Rng.int rng (max_delay + 1))
  in
  fes :=
    Array.init n (fun p ->
        build ~engine ~proc:p ~perform:(perform p)
          ~on_finish:(fun () -> finish.(p) <- Wo_sim.Engine.now engine));
  Array.iter (fun (fe : frontend) -> fe.start ()) !fes;
  (match Wo_sim.Engine.run ~max_events:10_000_000 engine with
  | `Idle -> ()
  | `Time_limit | `Event_limit -> failwith "Scripted_port.run: event limit");
  if not (Array.for_all (fun (fe : frontend) -> fe.finished ()) !fes) then
    failwith "Scripted_port.run: a thread did not finish";
  {
    requests = List.rev !log;
    registers = Array.map (fun (fe : frontend) -> fe.registers ()) !fes;
    finish;
    end_time = Wo_sim.Engine.now engine;
  }
