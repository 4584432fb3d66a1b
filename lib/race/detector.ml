module Vector_clock = Wo_core.Vector_clock

type model = Model_drf0 | Model_drf1

type loc_history = {
  mutable last_write : (Wo_core.Event.t * Vector_clock.t) option;
  mutable last_reads : (Wo_core.Event.t * Vector_clock.t) array;
      (* indexed by processor; clock all-zero means "no read yet" *)
  mutable sync_clock : Vector_clock.t;  (* join of released clocks *)
}

type t = {
  num_procs : int;
  model : model;
  mutable proc_clocks : Vector_clock.t array;
  locs : (Wo_core.Event.loc, loc_history) Hashtbl.t;
  dummy : Wo_core.Event.t;
}

let create ~num_procs ~model =
  {
    num_procs;
    model;
    proc_clocks = Array.init num_procs (fun _ -> Vector_clock.zero num_procs);
    locs = Hashtbl.create 64;
    dummy =
      Wo_core.Event.make ~id:(-1) ~proc:(-1) ~seq:(-1)
        ~kind:Wo_core.Event.Data_read ~loc:(-1) ();
  }

let history t loc =
  match Hashtbl.find_opt t.locs loc with
  | Some h -> h
  | None ->
    let h =
      {
        last_write = None;
        last_reads =
          Array.make t.num_procs (t.dummy, Vector_clock.zero t.num_procs);
        sync_clock = Vector_clock.zero t.num_procs;
      }
    in
    Hashtbl.replace t.locs loc h;
    h

(* Which synchronization components create cross-processor ordering. *)
let acquires t (e : Wo_core.Event.t) =
  match (t.model, e.Wo_core.Event.kind) with
  | _, (Wo_core.Event.Data_read | Wo_core.Event.Data_write) -> false
  | Model_drf0, _ -> true
  | Model_drf1, Wo_core.Event.Sync_write -> false
  | Model_drf1, (Wo_core.Event.Sync_read | Wo_core.Event.Sync_rmw) -> true

let releases t (e : Wo_core.Event.t) =
  match (t.model, e.Wo_core.Event.kind) with
  | _, (Wo_core.Event.Data_read | Wo_core.Event.Data_write) -> false
  | Model_drf0, _ -> true
  | Model_drf1, Wo_core.Event.Sync_read -> false
  | Model_drf1, (Wo_core.Event.Sync_write | Wo_core.Event.Sync_rmw) -> true

let observe t (e : Wo_core.Event.t) =
  let p = e.Wo_core.Event.proc in
  if p < 0 || p >= t.num_procs then
    invalid_arg "Detector.observe: processor out of range";
  let h = history t e.Wo_core.Event.loc in
  (* Advance our own component first so this event's clock includes its own
     timestamp — otherwise an event whose processor clock is still all-zero
     compares as ordered-before everything. *)
  t.proc_clocks.(p) <- Vector_clock.tick t.proc_clocks.(p) p;
  (* Acquire: past synchronization on this location orders us. *)
  if acquires t e then
    t.proc_clocks.(p) <- Vector_clock.join t.proc_clocks.(p) h.sync_clock;
  let my_clock = t.proc_clocks.(p) in
  let races = ref [] in
  let report prior =
    let prior_event, prior_clock = prior in
    if
      prior_event.Wo_core.Event.proc <> p
      && prior_event.Wo_core.Event.id >= 0
      && not (Vector_clock.leq prior_clock my_clock)
    then races := { Wo_core.Drf0.e1 = prior_event; e2 = e } :: !races
  in
  (* Conflict checks against location history. *)
  if Wo_core.Event.is_write e then begin
    Option.iter report h.last_write;
    Array.iter report h.last_reads
  end
  else Option.iter report h.last_write;
  (* Update history with this access. *)
  if Wo_core.Event.is_write e then begin
    h.last_write <- Some (e, my_clock);
    (* A write supersedes older reads for write-write detection purposes
       only when they are ordered before it; keep unordered reads. *)
    Array.iteri
      (fun q ((re, rc) as r) ->
        ignore re;
        if Vector_clock.leq rc my_clock then
          h.last_reads.(q) <- (t.dummy, Vector_clock.zero t.num_procs)
        else h.last_reads.(q) <- r)
      h.last_reads
  end;
  if Wo_core.Event.is_read e then h.last_reads.(p) <- (e, my_clock);
  (* Release: our past (including this event) becomes visible to later
     synchronizers. *)
  if releases t e then
    h.sync_clock <- Vector_clock.join h.sync_clock my_clock;
  List.rev !races

let races_of_execution ?(model = Model_drf0) exn =
  let procs = Wo_core.Execution.procs exn in
  let num_procs = 1 + List.fold_left max (-1) procs in
  let t = create ~num_procs ~model in
  List.concat_map (observe t) (Wo_core.Execution.events exn)

let is_race_free ?model exn = races_of_execution ?model exn = []

let sample_program ?(model = Model_drf0) ?(schedules = 20) ~run () =
  List.init schedules (fun seed -> races_of_execution ~model (run ~seed))
  |> List.concat
