(* Path-incremental DRF0/DRF1 checking.

   The Definition-3 quantifier asks whether *every* idealized execution
   orders conflicting accesses by happens-before.  The enumerator extends
   executions one event at a time along a DFS path, and whether two events
   of a prefix are hb-ordered depends only on that prefix (po and so edges
   never point forward), so the check can be maintained incrementally:

   - one vector clock per processor tracks exactly the events
     happens-before its next event (po joins carried through the
     processor, so joins acquired at synchronization operations);
   - per location, the epoch (per-processor event count) and identity of
     the last write and last read by each processor.  A processor's
     accesses to a location are po-ordered among themselves, so if any of
     them races with the incoming event the *last* one does — last-access
     metadata loses no races and finds the first one at the event that
     creates it (the classic vector-clock race-detection argument, cf.
     Netzer-Miller / FastTrack).

   Each [push] costs O(P) (a clock join/copy); [pop] restores the
   checkpointed references in O(1), so walking an enumeration subtree of
   depth d costs O(d * P) — no per-leaf O(n^3) closure, no per-leaf
   Execution materialization.

   Augmentation (the paper's initial/final-state construction) is
   deliberately not replayed here: the virtual processor's events are
   chained to every real event through the special-location
   synchronization ladder, so they can never race in an idealized
   execution, and the verdict over real events equals the closure-based
   verdict over the augmented execution.  [Drf0.races ~augment:true]
   remains the oracle; the equivalence is property-tested. *)

type mode = Mode_drf0 | Mode_drf1

let mode_of_model (m : Sync_model.t) =
  if m == Sync_model.drf0 || m.Sync_model.name = Sync_model.drf0.Sync_model.name
  then Some Mode_drf0
  else if
    m == Sync_model.drf1 || m.Sync_model.name = Sync_model.drf1.Sync_model.name
  then Some Mode_drf1
  else None

(* Which synchronization components create cross-processor ordering.
   Under DRF0 every pair of same-location synchronization operations
   synchronizes, so every sync op both acquires and releases; under the
   Section-6 DRF1 refinement only write->read pairs order other
   processors' accesses. *)
let acquires mode (k : Event.kind) =
  match (mode, k) with
  | _, (Event.Data_read | Event.Data_write) -> false
  | Mode_drf0, _ -> true
  | Mode_drf1, Event.Sync_write -> false
  | Mode_drf1, (Event.Sync_read | Event.Sync_rmw) -> true

let releases mode (k : Event.kind) =
  match (mode, k) with
  | _, (Event.Data_read | Event.Data_write) -> false
  | Mode_drf0, _ -> true
  | Mode_drf1, Event.Sync_read -> false
  | Mode_drf1, (Event.Sync_write | Event.Sync_rmw) -> true

(* Per-location access metadata.  Immutable: a push replaces the whole
   record (copying the two P-sized arrays), so the undo trail can restore
   the previous binding by reference. *)
type locrec = {
  last_write : (int * Event.t) option array; (* per proc: epoch, event *)
  last_read : (int * Event.t) option array;
  sync_clock : Vector_clock.t; (* join of clocks released at this location *)
}

type frame = {
  f_proc : int;
  f_clock : Vector_clock.t; (* the processor's clock before the push *)
  f_loc : Event.loc;
  f_locrec : locrec option; (* binding before the push; None = absent *)
}

type t = {
  nprocs : int;
  mode : mode;
  clocks : Vector_clock.t array; (* per-processor current clock *)
  counts : int array; (* events pushed per processor = epoch counter *)
  locs : (Event.loc, locrec) Hashtbl.t;
  absent : locrec; (* an untouched location's record, shared (immutable) *)
  mutable trail : frame list;
}

let create ?(mode = Mode_drf0) ~nprocs () =
  if nprocs <= 0 then invalid_arg "Drf0_inc.create: nprocs must be positive";
  {
    nprocs;
    mode;
    clocks = Array.init nprocs (fun _ -> Vector_clock.zero nprocs);
    counts = Array.make nprocs 0;
    locs = Hashtbl.create 31;
    absent =
      {
        last_write = Array.make nprocs None;
        last_read = Array.make nprocs None;
        sync_clock = Vector_clock.zero nprocs;
      };
    trail = [];
  }

let depth t = List.length t.trail

(* Among the latest conflicting access of each other processor, the
   unordered one with the smallest event id (ids are assigned in
   execution order by the interpreter).  Retaining only the latest access
   per (location, processor) is enough for the verdict: program order is
   happens-before, so an earlier access of [q] can race with [e] only if
   [q]'s latest conflicting access does too. *)
let find_race t (e : Event.t) clk lr =
  let p = e.Event.proc in
  let best = ref None in
  let consider = function
    | Some (epoch, prior) when epoch > Vector_clock.get clk prior.Event.proc
      -> (
      match !best with
      | Some (b : Event.t) when b.Event.id <= prior.Event.id -> ()
      | _ -> best := Some prior)
    | _ -> ()
  in
  for q = 0 to t.nprocs - 1 do
    if q <> p then begin
      (* any conflicting access has a write on at least one side *)
      consider lr.last_write.(q);
      if Event.is_write e then consider lr.last_read.(q)
    end
  done;
  match !best with
  | None -> None
  | Some prior -> Some { Drf0.e1 = prior; e2 = e }

let array_set a i v =
  let c = Array.copy a in
  c.(i) <- v;
  c

let push t (e : Event.t) =
  let p = e.Event.proc in
  if p < 0 || p >= t.nprocs then
    invalid_arg "Drf0_inc.push: processor out of range";
  let loc = e.Event.loc in
  let prev_binding = Hashtbl.find_opt t.locs loc in
  let lr = match prev_binding with Some r -> r | None -> t.absent in
  let old_clock = t.clocks.(p) in
  (* Acquire: past synchronization on this location orders us; the edge
     targets this event itself, so it participates in this event's own
     race check. *)
  let clk =
    if acquires t.mode e.Event.kind then
      Vector_clock.join old_clock lr.sync_clock
    else old_clock
  in
  let race = find_race t e clk lr in
  let epoch = t.counts.(p) + 1 in
  t.counts.(p) <- epoch;
  let clk' = Vector_clock.set clk p epoch in
  t.clocks.(p) <- clk';
  let lr' =
    {
      last_write =
        (if Event.is_write e then array_set lr.last_write p (Some (epoch, e))
         else lr.last_write);
      last_read =
        (if Event.is_read e then array_set lr.last_read p (Some (epoch, e))
         else lr.last_read);
      sync_clock =
        (if releases t.mode e.Event.kind then
           Vector_clock.join lr.sync_clock clk'
         else lr.sync_clock);
    }
  in
  Hashtbl.replace t.locs loc lr';
  t.trail <-
    { f_proc = p; f_clock = old_clock; f_loc = loc; f_locrec = prev_binding }
    :: t.trail;
  race

let pop t =
  match t.trail with
  | [] -> invalid_arg "Drf0_inc.pop: empty trail"
  | f :: rest ->
    t.clocks.(f.f_proc) <- f.f_clock;
    t.counts.(f.f_proc) <- t.counts.(f.f_proc) - 1;
    (match f.f_locrec with
    | None -> Hashtbl.remove t.locs f.f_loc
    | Some r -> Hashtbl.replace t.locs f.f_loc r);
    t.trail <- rest

let reset t =
  while t.trail <> [] do
    pop t
  done

(* --- state summaries for memoized (stateful) exploration ------------------ *)

(* Read accessors: the summary's values, read in place.  [loc_view]
   returns the bound record (or the shared absent one), so a caller
   looks a location up once and then reads it coordinate by coordinate
   without allocating. *)
let clock t p q = Vector_clock.get t.clocks.(p) q

type loc_view = locrec

let loc_view t loc =
  match Hashtbl.find_opt t.locs loc with Some lr -> lr | None -> t.absent

let epoch_of = function Some (epoch, _) -> epoch | None -> -1

let last_write lv q = epoch_of lv.last_write.(q)

let last_read lv q = epoch_of lv.last_read.(q)

let sync lv q = Vector_clock.get lv.sync_clock q

type loc_summary = {
  ls_loc : Event.loc;
  ls_last_write : int array; (* per proc: epoch of last write, or -1 *)
  ls_last_read : int array;
  ls_sync : int array; (* components of the location's sync clock *)
}

type summary = {
  sm_clocks : int array array; (* [p].(q): processor p's clock, component q *)
  sm_locs : loc_summary list; (* sorted by location *)
}

let summary t =
  let epochs src = Array.map epoch_of src in
  let locs =
    Hashtbl.fold
      (fun loc (lr : locrec) acc ->
        {
          ls_loc = loc;
          ls_last_write = epochs lr.last_write;
          ls_last_read = epochs lr.last_read;
          ls_sync =
            Array.init t.nprocs (fun q -> Vector_clock.get lr.sync_clock q);
        }
        :: acc)
      t.locs []
    |> List.sort (fun a b -> Int.compare a.ls_loc b.ls_loc)
  in
  {
    sm_clocks =
      Array.init t.nprocs (fun p ->
          Array.init t.nprocs (fun q -> Vector_clock.get t.clocks.(p) q));
    sm_locs = locs;
  }

let first_race ?mode ~nprocs events =
  let t = create ?mode ~nprocs () in
  List.find_map (fun e -> push t e) events

let check_execution ?mode exn =
  let nprocs =
    1 + List.fold_left max (-1) (Execution.procs exn)
  in
  if nprocs <= 0 then None
  else first_race ?mode ~nprocs (Execution.events exn)
