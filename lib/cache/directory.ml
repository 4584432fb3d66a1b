exception Protocol_error of string

module Int_set = Set.Make (Int)

type state = Uncached | Shared of int list | Exclusive of int

type dstate = D_uncached | D_shared of Int_set.t | D_exclusive of int

type transaction =
  | Wait_recall of { kind : [ `S | `X ]; requester : int; owner : int }
  | Wait_acks of { requester : int; mutable remaining : int }

type line = {
  loc : Wo_core.Event.loc;
  mutable dstate : dstate;
  mutable value : Wo_core.Event.value;
  mutable trans : transaction option;
  mutable trans_started : int;
  waiting : Msg.t Queue.t;
  mutable stale_recall_acks : int;
      (* RecallAcks to ignore because a concurrent write-back (PutX) already
         completed the recall transaction *)
}

type t = {
  engine : Wo_sim.Engine.t;
  fabric : Msg.t Wo_interconnect.Fabric.t;
  node : int;
  stats : Wo_sim.Stats.t option;
  obs : Wo_obs.Recorder.t;
  process_cycles : int;
  initial : Wo_core.Event.loc -> Wo_core.Event.value;
  lines : (Wo_core.Event.loc, line) Hashtbl.t;
}

let stat t name = match t.stats with Some s -> Wo_sim.Stats.incr s name | None -> ()

let line t loc =
  match Hashtbl.find_opt t.lines loc with
  | Some l -> l
  | None ->
    let l =
      {
        loc;
        dstate = D_uncached;
        value = t.initial loc;
        trans = None;
        trans_started = 0;
        waiting = Queue.create ();
        stale_recall_acks = 0;
      }
    in
    Hashtbl.replace t.lines loc l;
    l

let send t ~dst msg = t.fabric.Wo_interconnect.Fabric.send ~src:t.node ~dst msg

let protocol_error fmt = Format.kasprintf (fun s -> raise (Protocol_error s)) fmt

let open_trans t (l : line) trans =
  l.trans <- Some trans;
  if Wo_obs.Recorder.enabled t.obs then
    l.trans_started <- Wo_sim.Engine.now t.engine

let close_trans t (l : line) =
  (if Wo_obs.Recorder.enabled t.obs then
     match l.trans with
     | None -> ()
     | Some trans ->
       let now = Wo_sim.Engine.now t.engine in
       let name =
         match trans with
         | Wait_recall { kind = `S; _ } -> "recall.S"
         | Wait_recall { kind = `X; _ } -> "recall.X"
         | Wait_acks _ -> "inv_acks"
       in
       Wo_obs.Recorder.span t.obs ~cat:Wo_obs.Recorder.Dir ~track:l.loc ~name
         ~ts:l.trans_started ~dur:(now - l.trans_started));
  l.trans <- None

(* Answer a request against a line with no outstanding transaction. *)
let rec serve t (l : line) msg =
  match msg with
  | Msg.GetS { loc; requester; sync } -> (
    match l.dstate with
    | D_uncached ->
      l.dstate <- D_shared (Int_set.singleton requester);
      send t ~dst:requester
        (Msg.DataS { loc; value = l.value; bound_at = Wo_sim.Engine.now t.engine })
    | D_shared sharers ->
      l.dstate <- D_shared (Int_set.add requester sharers);
      send t ~dst:requester
        (Msg.DataS { loc; value = l.value; bound_at = Wo_sim.Engine.now t.engine })
    | D_exclusive owner ->
      open_trans t l (Wait_recall { kind = `S; requester; owner });
      stat t "dir.recalls";
      send t ~dst:owner (Msg.Recall { loc; mode = Msg.For_share; sync; requester }))
  | Msg.GetX { loc; requester; sync } -> (
    match l.dstate with
    | D_uncached ->
      l.dstate <- D_exclusive requester;
      send t ~dst:requester (Msg.DataX { loc; value = l.value; acks_pending = 0 })
    | D_exclusive owner ->
      (* This also covers the rare owner == requester case, which arises
         when the owner evicted the line and re-requested it before its
         write-back reached us; the recall is answered from the evicting
         copy. *)
      open_trans t l (Wait_recall { kind = `X; requester; owner });
      stat t "dir.recalls";
      send t ~dst:owner (Msg.Recall { loc; mode = Msg.For_own; sync; requester })
    | D_shared sharers ->
      let others = Int_set.remove requester sharers in
      l.dstate <- D_exclusive requester;
      if Int_set.is_empty others then
        send t ~dst:requester (Msg.DataX { loc; value = l.value; acks_pending = 0 })
      else begin
        (* Forward the line in parallel with the invalidations (5.2). *)
        send t ~dst:requester
          (Msg.DataX { loc; value = l.value; acks_pending = Int_set.cardinal others });
        Int_set.iter
          (fun sharer ->
            stat t "dir.invalidations";
            send t ~dst:sharer (Msg.Inv { loc }))
          others;
        open_trans t l
          (Wait_acks { requester; remaining = Int_set.cardinal others })
      end)
  | Msg.PutX { loc; value; from } ->
    (* Write-back with no transaction pending. *)
    (match l.dstate with
    | D_exclusive owner when owner = from ->
      l.dstate <- D_uncached;
      l.value <- value
    | _ -> (* stale write-back; ownership already moved on *) ());
    send t ~dst:from (Msg.PutAck { loc })
  | Msg.DataS _ | Msg.DataX _ | Msg.Inv _ | Msg.InvAck _ | Msg.Recall _
  | Msg.RecallAck _ | Msg.WriteDone _ | Msg.PutAck _ ->
    protocol_error "directory received %a outside any transaction" Msg.pp msg

and complete_transaction t (l : line) =
  close_trans t l;
  (* Drain queued requests until one opens a new transaction (a request
     served from a Shared or Uncached line completes immediately and must
     not leave the rest of the queue stranded). *)
  let rec drain () =
    if l.trans = None then
      match Queue.take_opt l.waiting with
      | None -> ()
      | Some msg ->
        dispatch t l msg;
        drain ()
  in
  drain ()

(* Complete a pending recall using the recalled value. *)
and finish_recall t (l : line) ~value =
  match l.trans with
  | Some (Wait_recall { kind; requester; owner }) ->
    l.value <- value;
    (match kind with
    | `S ->
      l.dstate <- D_shared (Int_set.of_list [ owner; requester ]);
      send t ~dst:requester
        (Msg.DataS { loc = l.loc; value; bound_at = Wo_sim.Engine.now t.engine })
    | `X ->
      l.dstate <- D_exclusive requester;
      send t ~dst:requester
        (Msg.DataX { loc = l.loc; value; acks_pending = 0 }));
    complete_transaction t l
  | _ -> protocol_error "finish_recall: no recall pending on line %d" l.loc

and dispatch t (l : line) msg =
  match msg with
  | Msg.GetS _ | Msg.GetX _ -> (
    match l.trans with
    | Some _ -> Queue.add msg l.waiting
    | None -> serve t l msg)
  | Msg.InvAck { loc = _; from = _ } -> (
    match l.trans with
    | Some (Wait_acks w) ->
      w.remaining <- w.remaining - 1;
      if w.remaining = 0 then begin
        send t ~dst:w.requester (Msg.WriteDone { loc = l.loc });
        complete_transaction t l
      end
    | _ -> protocol_error "unexpected InvAck for line %d" l.loc)
  | Msg.RecallAck { loc = _; value; from } -> (
    match l.trans with
    | Some (Wait_recall { owner; _ }) when owner = from ->
      finish_recall t l ~value
    | _ ->
      if l.stale_recall_acks > 0 then
        l.stale_recall_acks <- l.stale_recall_acks - 1
      else protocol_error "unexpected RecallAck for line %d" l.loc)
  | Msg.PutX { loc = _; value; from } -> (
    match l.trans with
    | Some (Wait_recall { owner; _ }) when owner = from ->
      (* The owner's write-back crossed our recall: treat the write-back as
         the recall answer, and remember to drop the RecallAck the evicting
         cache will also send. *)
      l.stale_recall_acks <- l.stale_recall_acks + 1;
      send t ~dst:from (Msg.PutAck { loc = l.loc });
      finish_recall t l ~value
    | _ -> serve t l msg)
  | Msg.Recall _ | Msg.DataS _ | Msg.DataX _ | Msg.Inv _ | Msg.WriteDone _
  | Msg.PutAck _ ->
    protocol_error "directory cannot handle %a" Msg.pp msg

let handle t msg =
  Wo_sim.Engine.schedule t.engine ~delay:t.process_cycles (fun () ->
      dispatch t (line t (Msg.loc msg)) msg)

let create ~engine ~fabric ~node ?stats ?(obs = Wo_obs.Recorder.disabled)
    ?(process_cycles = 1) ~initial () =
  let t =
    {
      engine;
      fabric;
      node;
      stats;
      obs;
      process_cycles = max 1 process_cycles;
      initial;
      lines = Hashtbl.create 64;
    }
  in
  fabric.Wo_interconnect.Fabric.connect ~node (fun msg -> handle t msg);
  t

(* Session support: forget every line.  Lines are recreated lazily with
   [t.initial], so a directory whose [initial] closure reads mutable
   state picks up the next program's initial values after a reset. *)
let reset t = Hashtbl.reset t.lines

let state_of t loc =
  match Hashtbl.find_opt t.lines loc with
  | None -> Uncached
  | Some l -> (
    match l.dstate with
    | D_uncached -> Uncached
    | D_shared s -> Shared (Int_set.elements s)
    | D_exclusive o -> Exclusive o)

let memory_value t loc =
  match Hashtbl.find_opt t.lines loc with
  | None -> t.initial loc
  | Some l -> l.value

let busy_lines t =
  Hashtbl.fold
    (fun loc l acc -> if l.trans <> None then loc :: acc else acc)
    t.lines []
  |> List.sort Int.compare

let debug_dump t =
  let b = Buffer.create 256 in
  Hashtbl.iter
    (fun loc l ->
      Buffer.add_string b
        (Printf.sprintf "  dir loc=%d st=%s v=%d trans=%s queued=%d stale_racks=%d\n"
           loc
           (match l.dstate with
           | D_uncached -> "U"
           | D_shared s ->
             "S{" ^ String.concat "," (List.map string_of_int (Int_set.elements s)) ^ "}"
           | D_exclusive o -> Printf.sprintf "E(%d)" o)
           l.value
           (match l.trans with
           | None -> "-"
           | Some (Wait_recall { kind; requester; owner }) ->
             Printf.sprintf "recall(%s req=%d own=%d)"
               (match kind with `S -> "S" | `X -> "X") requester owner
           | Some (Wait_acks { requester; remaining }) ->
             Printf.sprintf "acks(req=%d rem=%d)" requester remaining)
           (Queue.length l.waiting) l.stale_recall_acks))
    t.lines;
  Buffer.contents b
