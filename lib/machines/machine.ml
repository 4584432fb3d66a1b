exception Machine_error of string

type result = {
  outcome : Wo_prog.Outcome.t;
  trace : Wo_sim.Trace.t;
  cycles : int;
  proc_finish : int array;
  counters : Wo_sim.Stats.t;
  stalls : Wo_obs.Stall.t;
  taps : Wo_obs.Tap.t;
}

type engine = Compiled

type session = {
  session_machine : string;
  session_run :
    seed:int -> ?compiled:Wo_prog.Prog_compile.t -> Wo_prog.Program.t -> result;
}

type t = {
  name : string;
  description : string;
  sequentially_consistent : bool;
  weakly_ordered_drf0 : bool;
  new_session : unit -> session;
}

let run t ?(seed = 0) program = (t.new_session ()).session_run ~seed program

let new_session t Compiled = t.new_session ()

let session_run s ?(seed = 0) ?compiled program =
  s.session_run ~seed ?compiled program

(* --- run accounting --------------------------------------------------------- *)

(* Atomics: sweep/campaign workers run machines from several domains. *)
let runs_count = Atomic.make 0
let session_reuse_count = Atomic.make 0
let session_replay_count = Atomic.make 0

let note_run () = Atomic.incr runs_count
let note_session_reuse () = Atomic.incr session_reuse_count
let note_session_replay () = Atomic.incr session_replay_count

let runs () = Atomic.get runs_count
let session_reuses () = Atomic.get session_reuse_count
let session_replays () = Atomic.get session_replay_count

let emit_counters () =
  let r = Wo_obs.Recorder.active () in
  if Wo_obs.Recorder.enabled r then begin
    let c name value =
      Wo_obs.Recorder.counter r ~cat:Wo_obs.Recorder.Proc ~track:0 ~name ~ts:0
        ~value
    in
    c "machine.runs" (runs ());
    c "machine.session_reuse" (session_reuses ());
    c "machine.session_replays" (session_replays ())
  end

let compile ~name program =
  match Wo_prog.Prog_compile.compile program with
  | Some art -> art
  | None ->
    raise
      (Machine_error
         (Printf.sprintf "%s: cannot compile %S: %s" name
            program.Wo_prog.Program.name
            (Option.get (Wo_prog.Prog_compile.exceeded_bound program))))

let stats r =
  Wo_sim.Stats.to_list r.counters
  @ Wo_obs.Stall.to_stats r.stalls
  @ Wo_obs.Tap.to_stats r.taps

let check_lemma1 ?init r =
  Wo_core.Lemma1.check ?init
    ~events:(Wo_sim.Trace.events r.trace)
    ~po:(Wo_sim.Trace.program_order r.trace)
    ~so:(Wo_sim.Trace.sync_commit_order r.trace)
    ()

let stall r ~proc reason =
  match Wo_obs.Stall.reason_of_name reason with
  | Some re -> Wo_obs.Stall.get r.stalls ~proc re
  | None -> 0

let total_stalls r = Wo_obs.Stall.total r.stalls

let proc_stalls r ~proc = Wo_obs.Stall.proc_total r.stalls ~proc
