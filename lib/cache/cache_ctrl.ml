exception Protocol_error of string

type access_kind =
  [ `Data_read
  | `Data_write of Wo_core.Event.value
  | `Sync_read
  | `Sync_write of Wo_core.Event.value
  | `Sync_rmw of Wo_core.Event.rmw ]

type completion = {
  on_commit : at:int -> Wo_core.Event.value option -> unit;
  on_gp : unit -> unit;
}

type config = {
  hit_cycles : int;
  reserve_enabled : bool;
  sync_read_shared : bool;
  capacity : int option;
  coarse_counter : bool;
      (* release reserve bits only when the whole counter reads zero — the
         paper's literal Section-5.3 accounting, kept for the deadlock
         demonstration; the default is the per-synchronization watermark *)
}

let default_config =
  {
    hit_cycles = 1;
    reserve_enabled = false;
    sync_read_shared = false;
    capacity = None;
    coarse_counter = false;
  }

type lstate = Invalid | Shared_l | Exclusive_l | Evicting

type op = { kind : access_kind; serial : int; completion : completion }

type line = {
  lloc : Wo_core.Event.loc;
  mutable state : lstate;
  mutable value : Wo_core.Event.value;
  mutable value_bound_at : int;
      (* when the current value was bound into this cache: the line fill's
         dispatch time at the directory, or the local write's time.  A read
         hit commits at this time -- its value was dispatched towards the
         processor then -- which places stale-shared-copy reads correctly
         in the per-location serialization. *)
  mutable reserve_watermark : int option;
      (* Some w: the line is reserved; the reserve releases when every
         access with serial < w is globally performed.  This is the
         per-synchronization accounting the paper's footnote describes
         ("a mechanism to distinguish accesses generated before a
         particular synchronization operation from those generated
         after"); a single coarse counter can deadlock when two
         processors' reserve bits transitively wait on each other's
         stalled synchronization misses. *)
  mutable last_use : int;
  mutable wd_outstanding : int;
      (* WriteDones still expected for this line.  More than one can be in
         flight at once: an exclusive grant's WriteDone may still be
         travelling when the line is recalled away, re-requested, and
         granted again with fresh invalidations.  Transactions on one line
         are serialized at the directory, so a later grant's WriteDone is
         only ever sent after every earlier transaction completed —
         receiving ANY WriteDone therefore licenses completing the OLDEST
         outstanding grant period. *)
  mutable gp_batches : (unit -> unit) list list;
      (* waiters grouped per outstanding WriteDone, newest period first;
         invariant: [List.length gp_batches = wd_outstanding] *)
  ops : op Queue.t;
  mutable miss_outstanding : [ `No | `Get_s | `Get_x ];
  mutable pending_inv : bool;     (* Inv arrived while our GetS is in flight *)
  mutable early_write_done : bool;(* WriteDone overtook our DataX *)
  mutable stalled_recalls : (int * Msg.t) list;
      (* (stall start, recall), newest first; the start time survives
         re-stalling so reserve waits are attributed over the whole wait *)
  mutable putx_outstanding : bool;
  mutable miss_started : int;      (* when the outstanding miss was sent *)
  mutable reserve_set_at : int;    (* when the reserve bit was last set *)
}

type waiting_access = {
  wloc : Wo_core.Event.loc;
  wkind : access_kind;
  wcompletion : completion;
}

type t = {
  engine : Wo_sim.Engine.t;
  fabric : Msg.t Wo_interconnect.Fabric.t;
  node : int;
  dir_node : int;
  stats : Wo_sim.Stats.t;
  s_reserves : Wo_sim.Stats.slot;
  s_hits : Wo_sim.Stats.slot;
  s_misses : Wo_sim.Stats.slot;
  s_evictions : Wo_sim.Stats.slot;
  stalls : Wo_obs.Stall.t option;
      (* reserve-bit waits are attributed here, to the REQUESTING
         processor, by the cache that holds the reserve (5.3) *)
  obs : Wo_obs.Recorder.t;
  config : config;
  lines : (Wo_core.Event.loc, line) Hashtbl.t;
  mutable next_serial : int;
  outstanding : (int, unit) Hashtbl.t;
      (* serials of accesses submitted but not yet globally performed *)
  mutable idle_waiters : (unit -> unit) list;
  alloc_waiting : waiting_access Queue.t;
  mutable pending : int;  (* accesses submitted, not yet committed *)
  mutable use_clock : int;
}

let stat t slot = Wo_sim.Stats.incr_at t.stats slot

let protocol_error fmt = Format.kasprintf (fun s -> raise (Protocol_error s)) fmt

let send t msg = t.fabric.Wo_interconnect.Fabric.send ~src:t.node ~dst:t.dir_node msg

let needs_exclusive t (kind : access_kind) =
  match kind with
  | `Data_read -> false
  | `Sync_read -> not t.config.sync_read_shared
  | `Data_write _ | `Sync_write _ | `Sync_rmw _ -> true

let kind_is_sync (kind : access_kind) =
  match kind with
  | `Sync_read | `Sync_write _ | `Sync_rmw _ -> true
  | `Data_read | `Data_write _ -> false

let sets_reserve t (kind : access_kind) =
  t.config.reserve_enabled
  &&
  match kind with
  | `Sync_read -> not t.config.sync_read_shared
  | `Sync_write _ | `Sync_rmw _ -> true
  | `Data_read | `Data_write _ -> false

let state_sufficient t kind = function
  | Exclusive_l -> true
  | Shared_l -> not (needs_exclusive t kind)
  | Invalid | Evicting -> false

let reserved (l : line) = l.reserve_watermark <> None

let min_outstanding t =
  Hashtbl.fold (fun s () m -> min s m) t.outstanding max_int

(* --- remote recalls (the reserve-bit stall of 5.3) ------------------------ *)

let attribute_reserve_wait t ~since ~requester =
  match t.stalls with
  | None -> ()
  | Some stalls ->
    let now = Wo_sim.Engine.now t.engine in
    if now > since then
      Wo_obs.Stall.add stalls ~sink:t.obs ~now ~proc:requester
        Wo_obs.Stall.Reserve_wait (now - since)

let rec service_stalled_recalls t (l : line) =
  if l.miss_outstanding = `No then
    match l.stalled_recalls with
    | [] -> ()
    | recalls ->
      l.stalled_recalls <- [];
      (* Re-dispatch; a synchronization recall re-stalls if the line is
         still reserved. *)
      List.iter (fun (since, m) -> handle_recall t l ~since m) (List.rev recalls)

and handle_recall t (l : line) ~since msg =
  match msg with
  | Msg.Recall { loc; mode; sync; requester } -> (
    match l.state with
    | Evicting ->
      (* Our write-back crossed the recall; answer from the evicting copy
         (the directory reconciles).  This must happen even if we have
         already re-requested the line: our re-request is queued at the
         directory behind this very recall, so stalling here would
         deadlock. *)
      send t (Msg.RecallAck { loc; value = l.value; from = t.node })
    | Exclusive_l | Invalid | Shared_l ->
      if (sync && reserved l) || l.miss_outstanding <> `No then
        (* Reserved lines stall remote synchronization until every access
           generated before the reserving synchronization is globally
           performed (5.3); data requests are serviced regardless, which
           is what makes the reserve mechanism deadlock-free.  A recall
           can also overtake our own DataX on the unordered network, in
           which case it waits for the data. *)
        l.stalled_recalls <- (since, msg) :: l.stalled_recalls
      else begin
        (* A synchronization request that sat stalled here was the
           REQUESTER's wait: charge the elapsed cycles to it (the paper's
           "next synchronization operation stalls"). *)
        if sync then attribute_reserve_wait t ~since ~requester;
        match l.state with
        | Exclusive_l ->
          send t (Msg.RecallAck { loc; value = l.value; from = t.node });
          l.state <-
            (match mode with Msg.For_share -> Shared_l | Msg.For_own -> Invalid)
        | Invalid | Shared_l | Evicting ->
          protocol_error "P%d: recall for line %d not owned" t.node loc
      end)
  | _ -> assert false

(* --- line bookkeeping ------------------------------------------------------ *)

let touch t l =
  t.use_clock <- t.use_clock + 1;
  l.last_use <- t.use_clock

let line_removable (l : line) =
  Queue.is_empty l.ops
  && l.miss_outstanding = `No
  && l.wd_outstanding = 0
  && (not (reserved l))
  && l.stalled_recalls = []
  && (not l.putx_outstanding)
  && l.gp_batches = []

let resident t = Hashtbl.length t.lines

let find_victim t =
  Hashtbl.fold
    (fun _ l best ->
      let evictable =
        (match l.state with Shared_l | Exclusive_l -> true | Invalid | Evicting -> false)
        && line_removable l
      in
      match (evictable, best) with
      | false, _ -> best
      | true, Some b when b.last_use <= l.last_use -> best
      | true, _ -> Some l)
    t.lines None

(* --- local op application --------------------------------------------------- *)

let apply_op t (l : line) (op : op) ~(gp_immediate : bool) =
  (* The line is in a sufficient state; perform the operation on the cached
     copy.  A write commits when it modifies the copy of the line in the
     local cache (5.2); a read commits when its value was dispatched
     towards the processor, i.e. when the value it returns was bound into
     this cache. *)
  let now = Wo_sim.Engine.now t.engine in
  let read_value, wrote, commit_at =
    match op.kind with
    | `Data_read | `Sync_read -> (Some l.value, false, l.value_bound_at)
    | `Data_write v | `Sync_write v ->
      l.value <- v;
      l.value_bound_at <- now;
      (None, true, now)
    | `Sync_rmw d ->
      let old = l.value in
      l.value <- Wo_core.Event.apply_rmw d old;
      l.value_bound_at <- now;
      (Some old, true, now)
  in
  touch t l;
  let own_gp_deferred = wrote && ((not gp_immediate) || l.wd_outstanding > 0) in
  (* "If at this time its counter has a positive value, i.e., there are
     outstanding accesses, the reserve bit of the cache line with the
     synchronization variable is set."  With per-access serials the
     reserve waits for everything submitted up to and including this
     synchronization operation; the processor is blocked on it, so nothing
     later can be outstanding yet. *)
  let other_outstanding =
    Hashtbl.length t.outstanding > 1
    || (Hashtbl.length t.outstanding = 1
       && not (Hashtbl.mem t.outstanding op.serial))
  in
  if sets_reserve t op.kind && (other_outstanding || own_gp_deferred) then begin
    (if Wo_obs.Recorder.enabled t.obs && not (reserved l) then
       l.reserve_set_at <- now);
    l.reserve_watermark <- Some (op.serial + 1);
    stat t t.s_reserves
  end;
  t.pending <- t.pending - 1;
  op.completion.on_commit ~at:commit_at read_value;
  if own_gp_deferred then
    (* Either this write's own invalidations are outstanding, or a previous
       write to this line is not yet globally performed (a stale shared
       copy elsewhere may still be readable); globally performed when the
       newest outstanding period's WriteDone arrives. *)
    match l.gp_batches with
    | batch :: rest ->
      l.gp_batches <- (op.completion.on_gp :: batch) :: rest
    | [] -> assert false (* own_gp_deferred implies wd_outstanding > 0 *)
  else op.completion.on_gp ()

(* --- issue path: attempts, allocation, eviction, serial accounting --------- *)

let rec remove_if_dead t (l : line) =
  if l.state = Invalid && line_removable l then begin
    Hashtbl.remove t.lines l.lloc;
    retry_waiting_allocs t
  end

and attempt t (l : line) =
  match Queue.peek_opt l.ops with
  | None -> ()
  | Some op ->
    if l.miss_outstanding <> `No then ()
    else if state_sufficient t op.kind l.state then begin
      stat t t.s_hits;
      apply_op t l op ~gp_immediate:true;
      ignore (Queue.pop l.ops);
      schedule_next t l
    end
    else begin
      stat t t.s_misses;
      if Wo_obs.Recorder.enabled t.obs then
        l.miss_started <- Wo_sim.Engine.now t.engine;
      let sync = kind_is_sync op.kind in
      if needs_exclusive t op.kind then begin
        l.miss_outstanding <- `Get_x;
        send t (Msg.GetX { loc = l.lloc; requester = t.node; sync })
      end
      else begin
        l.miss_outstanding <- `Get_s;
        send t (Msg.GetS { loc = l.lloc; requester = t.node; sync })
      end
    end

and schedule_next t (l : line) =
  if not (Queue.is_empty l.ops) then
    Wo_sim.Engine.schedule t.engine ~delay:t.config.hit_cycles (fun () ->
        attempt t l)
  else remove_if_dead t l

and allocate_line t loc =
  match Hashtbl.find_opt t.lines loc with
  | Some l -> Some l
  | None -> (
    let full () =
      match t.config.capacity with
      | None -> false
      | Some cap -> resident t >= cap
    in
    if full () then
      (* dead Invalid lines (e.g. recalled away) still occupy slots *)
      Hashtbl.iter
        (fun _ l ->
          if l.state = Invalid && line_removable l then
            Hashtbl.remove t.lines l.lloc)
        (Hashtbl.copy t.lines);
    if not (full ()) then begin
      let l =
        {
          lloc = loc;
          state = Invalid;
          value = 0;
          value_bound_at = 0;
          reserve_watermark = None;
          last_use = 0;
          wd_outstanding = 0;
          gp_batches = [];
          ops = Queue.create ();
          miss_outstanding = `No;
          pending_inv = false;
          early_write_done = false;
          stalled_recalls = [];
          putx_outstanding = false;
          miss_started = 0;
          reserve_set_at = 0;
        }
      in
      Hashtbl.replace t.lines loc l;
      Some l
    end
    else
      match find_victim t with
      | None -> None (* every line is pinned (e.g. reserved); caller waits *)
      | Some victim -> (
        stat t t.s_evictions;
        match victim.state with
        | Shared_l ->
          (* Silent drop: the directory may still list us as a sharer; a
             later Inv for an absent line is acknowledged harmlessly. *)
          Hashtbl.remove t.lines victim.lloc;
          allocate_line t loc
        | Exclusive_l ->
          victim.state <- Evicting;
          victim.putx_outstanding <- true;
          send t (Msg.PutX { loc = victim.lloc; value = victim.value; from = t.node });
          (* Capacity frees when the PutAck arrives. *)
          None
        | Invalid | Evicting -> None))

and retry_waiting_allocs t =
  let n = Queue.length t.alloc_waiting in
  for _ = 1 to n do
    match Queue.take_opt t.alloc_waiting with
    | None -> ()
    | Some w -> submit t w.wloc w.wkind w.wcompletion
  done

and submit t loc kind completion =
  match allocate_line t loc with
  | None -> Queue.add { wloc = loc; wkind = kind; wcompletion = completion } t.alloc_waiting
  | Some l ->
    let serial = t.next_serial in
    t.next_serial <- serial + 1;
    Hashtbl.replace t.outstanding serial ();
    let completion =
      {
        completion with
        on_gp =
          (fun () ->
            completion.on_gp ();
            complete_serial t serial);
      }
    in
    Queue.add { kind; serial; completion } l.ops;
    if Queue.length l.ops = 1 then
      Wo_sim.Engine.schedule t.engine ~delay:t.config.hit_cycles (fun () ->
          attempt t l)

and complete_serial t serial =
  Hashtbl.remove t.outstanding serial;
  maybe_release_reserves t;
  if Hashtbl.length t.outstanding = 0 then begin
    let waiters = t.idle_waiters in
    t.idle_waiters <- [];
    List.iter (fun f -> f ()) waiters;
    (* Releasing reserves may have unpinned an eviction victim. *)
    retry_waiting_allocs t
  end

and maybe_release_reserves t =
  let floor =
    if t.config.coarse_counter then
      (* "All reserve bits are reset when the counter reads zero": with the
         paper's single counter a reserve also waits for accesses generated
         AFTER the reserving synchronization — including stalled
         synchronization misses, which is what makes this variant
         deadlock-prone (see the mli and DESIGN.md). *)
      if Hashtbl.length t.outstanding = 0 then max_int else min_int
    else min_outstanding t
  in
  Hashtbl.iter
    (fun _ l ->
      match l.reserve_watermark with
      | Some w when floor >= w ->
        (* Everything generated up to the reserving synchronization is
           globally performed: release and service stalled requests. *)
        l.reserve_watermark <- None;
        (if Wo_obs.Recorder.enabled t.obs then
           let now = Wo_sim.Engine.now t.engine in
           Wo_obs.Recorder.span t.obs ~cat:Wo_obs.Recorder.Cache ~track:t.node
             ~name:(Printf.sprintf "reserve.%d" l.lloc)
             ~ts:l.reserve_set_at ~dur:(now - l.reserve_set_at));
        service_stalled_recalls t l
      | Some _ | None -> ())
    t.lines

let access t loc kind completion =
  t.pending <- t.pending + 1;
  submit t loc kind completion

(* --- network message handling ------------------------------------------------ *)

let pop_head_op (l : line) =
  match Queue.pop l.ops with
  | op -> op
  | exception Queue.Empty -> protocol_error "line %d: response with no pending op" l.lloc

(* Complete the OLDEST outstanding grant period (see [wd_outstanding]). *)
let fire_oldest_gp_batch (l : line) =
  match List.rev l.gp_batches with
  | [] -> ()
  | oldest :: newer_rev ->
    l.gp_batches <- List.rev newer_rev;
    List.iter (fun f -> f ()) oldest

let miss_span t (l : line) name =
  if Wo_obs.Recorder.enabled t.obs then begin
    let now = Wo_sim.Engine.now t.engine in
    Wo_obs.Recorder.span t.obs ~cat:Wo_obs.Recorder.Cache ~track:t.node
      ~name:(Printf.sprintf "%s.%d" name l.lloc)
      ~ts:l.miss_started ~dur:(now - l.miss_started)
  end

let on_data_s t (l : line) value ~bound_at =
  if l.miss_outstanding <> `Get_s then
    protocol_error "P%d: DataS for line %d without GetS" t.node l.lloc;
  miss_span t l "miss.read";
  l.miss_outstanding <- `No;
  l.state <- Shared_l;
  l.value <- value;
  l.value_bound_at <- bound_at;
  let op = pop_head_op l in
  apply_op t l op ~gp_immediate:true;
  if l.pending_inv then begin
    (* An invalidation arrived while our fill was in flight (already
       acknowledged).  If the data predates the invalidating write, the
       read above legitimately returned the old value exactly once (it was
       serialized before the write at the directory); either way the line
       is dropped now. *)
    l.pending_inv <- false;
    l.state <- Invalid
  end;
  service_stalled_recalls t l;
  schedule_next t l

let on_data_x t (l : line) value acks_pending =
  if l.miss_outstanding <> `Get_x then
    protocol_error "P%d: DataX for line %d without GetX" t.node l.lloc;
  miss_span t l "miss.own";
  l.miss_outstanding <- `No;
  l.state <- Exclusive_l;
  l.value <- value;
  l.value_bound_at <- Wo_sim.Engine.now t.engine;
  l.putx_outstanding <- false;
  let acks_outstanding = acks_pending > 0 && not l.early_write_done in
  l.early_write_done <- false;
  if acks_outstanding then begin
    l.wd_outstanding <- l.wd_outstanding + 1;
    l.gp_batches <- [] :: l.gp_batches
  end;
  let op = pop_head_op l in
  apply_op t l op ~gp_immediate:(not acks_outstanding);
  service_stalled_recalls t l;
  schedule_next t l

let on_write_done _t (l : line) =
  (* A pending period always takes precedence: with our own GetX in
     flight AND an earlier grant's WriteDone still expected, an arriving
     WriteDone could be either — but per-line transactions are serialized
     at the directory, so whichever was sent, every transaction up to and
     including the oldest outstanding period has completed.  Only when no
     period is outstanding can this be the in-flight grant's WriteDone
     overtaking its DataX on the unordered network. *)
  if l.wd_outstanding > 0 then begin
    l.wd_outstanding <- l.wd_outstanding - 1;
    fire_oldest_gp_batch l
  end
  else if l.miss_outstanding = `Get_x then l.early_write_done <- true

let on_inv t (l : line) =
  match l.state with
  | Shared_l | Invalid ->
    (* Acknowledge immediately, even with our own fill in flight (transient
       IS_D).  Deferring the acknowledgement until the data arrives would
       deadlock when the invalidation actually refers to a silently
       dropped older copy and our re-request is queued at the directory
       behind the invalidating write's transaction.  If the incoming data
       predates the invalidating write, [pending_inv] makes the fill
       usable for exactly one read (serialized before the write) and then
       drops the line. *)
    if l.miss_outstanding = `Get_s then l.pending_inv <- true
    else l.state <- Invalid;
    send t (Msg.InvAck { loc = l.lloc; from = t.node });
    remove_if_dead t l
  | Exclusive_l | Evicting ->
    protocol_error "P%d: Inv for exclusively-held line %d" t.node l.lloc

let on_put_ack t (l : line) =
  l.putx_outstanding <- false;
  if l.state = Evicting then begin
    l.state <- Invalid;
    remove_if_dead t l
  end;
  retry_waiting_allocs t

let dispatch t msg =
  let loc = Msg.loc msg in
  match Hashtbl.find_opt t.lines loc with
  | None -> (
    match msg with
    | Msg.Inv _ ->
      (* A silently dropped shared line. *)
      send t (Msg.InvAck { loc; from = t.node })
    | Msg.Recall _ ->
      (* The recall crossed our completed write-back: the directory already
         finished its transaction using the PutX value and is waiting to
         discard exactly one stale RecallAck from us. *)
      send t (Msg.RecallAck { loc; value = 0; from = t.node })
    | _ -> protocol_error "P%d: %a for absent line" t.node Msg.pp msg)
  | Some l -> (
    match msg with
    | Msg.DataS { value; bound_at; _ } -> on_data_s t l value ~bound_at
    | Msg.DataX { value; acks_pending; _ } -> on_data_x t l value acks_pending
    | Msg.Inv _ -> on_inv t l
    | Msg.WriteDone _ -> on_write_done t l
    | Msg.Recall _ -> handle_recall t l ~since:(Wo_sim.Engine.now t.engine) msg
    | Msg.PutAck _ -> on_put_ack t l
    | Msg.GetS _ | Msg.GetX _ | Msg.InvAck _ | Msg.RecallAck _ | Msg.PutX _ ->
      protocol_error "P%d: cache cannot handle %a" t.node Msg.pp msg)

let create ~engine ~fabric ~node ~dir_node ?(stats = Wo_sim.Stats.create ())
    ?stalls ?(obs = Wo_obs.Recorder.disabled) config =
  let slot = Wo_sim.Stats.slot stats in
  let t =
    {
      engine;
      fabric;
      node;
      dir_node;
      stats;
      s_reserves = slot "cache.reserves";
      s_hits = slot "cache.hits";
      s_misses = slot "cache.misses";
      s_evictions = slot "cache.evictions";
      stalls;
      obs;
      config;
      lines = Hashtbl.create 64;
      next_serial = 0;
      outstanding = Hashtbl.create 16;
      idle_waiters = [];
      alloc_waiting = Queue.create ();
      pending = 0;
      use_clock = 0;
    }
  in
  fabric.Wo_interconnect.Fabric.connect ~node (fun msg -> dispatch t msg);
  t

(* Session support: drop every line and every in-flight access, in place.
   Sound only when the engine has drained or been cleared — the fabric
   handler registered by [create] stays connected, so the controller is
   immediately usable for the next run. *)
let reset t =
  Hashtbl.reset t.lines;
  t.next_serial <- 0;
  Hashtbl.reset t.outstanding;
  t.idle_waiters <- [];
  Queue.clear t.alloc_waiting;
  t.pending <- 0;
  t.use_clock <- 0

let outstanding t = Hashtbl.length t.outstanding

let on_counter_zero t f =
  if Hashtbl.length t.outstanding = 0 then f ()
  else t.idle_waiters <- f :: t.idle_waiters

let reserved_locs t =
  Hashtbl.fold (fun loc l acc -> if reserved l then loc :: acc else acc) t.lines []
  |> List.sort Int.compare

let line_state t loc =
  match Hashtbl.find_opt t.lines loc with
  | None -> `Invalid
  | Some l -> (
    match l.state with
    | Invalid -> `Invalid
    | Shared_l -> `Shared
    | Exclusive_l | Evicting -> `Exclusive)

let value_of t loc =
  match Hashtbl.find_opt t.lines loc with
  | None -> None
  | Some l -> (
    match l.state with
    | Invalid -> None
    | Shared_l | Exclusive_l | Evicting -> Some l.value)

let pending_accesses t = t.pending

let resident_lines t = resident t

let stalled_recall_locs t =
  Hashtbl.fold
    (fun loc l acc ->
      match l.stalled_recalls with
      | [] -> acc
      | rs -> (loc, List.length rs) :: acc)
    t.lines []
  |> List.sort compare

let debug_dump t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "P%d outstanding=%d pending=%d\n" t.node
       (Hashtbl.length t.outstanding) t.pending);
  Hashtbl.iter
    (fun loc l ->
      Buffer.add_string b
        (Printf.sprintf
           "  loc=%d st=%s v=%d res=%s ops=%d miss=%s wd_out=%d pinv=%b ewd=%b stalled=%d putx=%b gpw=%d\n"
           loc
           (match l.state with
           | Invalid -> "I" | Shared_l -> "S" | Exclusive_l -> "E" | Evicting -> "Ev")
           l.value
           (match l.reserve_watermark with
           | None -> "-"
           | Some w -> string_of_int w)
           (Queue.length l.ops)
           (match l.miss_outstanding with `No -> "-" | `Get_s -> "GetS" | `Get_x -> "GetX")
           l.wd_outstanding l.pending_inv l.early_write_done
           (List.length l.stalled_recalls) l.putx_outstanding
           (List.fold_left (fun n b -> n + List.length b) 0 l.gp_batches)))
    t.lines;
  Buffer.contents b
