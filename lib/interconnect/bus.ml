type 'msg pending = { src : int; dst : int; enqueued : int; msg : 'msg }

type 'msg t = {
  engine : Wo_sim.Engine.t;
  stats : Wo_sim.Stats.t;
  messages : Wo_sim.Stats.slot;
  tap : ('msg -> src:int -> dst:int -> latency:int -> unit) option;
  transfer_cycles : int;
  handlers : (int, 'msg -> unit) Hashtbl.t;
  queue : 'msg pending Queue.t;
  mutable busy : bool;
  mutable sent : int;
}

let create ~engine ?(stats = Wo_sim.Stats.create ()) ?tap
    ?(transfer_cycles = 2) () =
  {
    engine;
    stats;
    messages = Wo_sim.Stats.slot stats "bus.messages";
    tap;
    transfer_cycles;
    handlers = Hashtbl.create 17;
    queue = Queue.create ();
    busy = false;
    sent = 0;
  }

let connect t ~node handler = Hashtbl.replace t.handlers node handler

let rec start_next t =
  match Queue.take_opt t.queue with
  | None -> t.busy <- false
  | Some { src; dst; enqueued; msg } ->
    t.busy <- true;
    Wo_sim.Engine.schedule t.engine ~delay:t.transfer_cycles (fun () ->
        (match t.tap with
        | Some tap ->
          (* queueing wait + transfer: total send-to-delivery latency *)
          tap msg ~src ~dst ~latency:(Wo_sim.Engine.now t.engine - enqueued)
        | None -> ());
        (match Hashtbl.find_opt t.handlers dst with
        | Some handler -> handler msg
        | None ->
          invalid_arg (Printf.sprintf "Bus.send: no handler for node %d" dst));
        start_next t)

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  Wo_sim.Stats.incr_at t.stats t.messages;
  Queue.add { src; dst; enqueued = Wo_sim.Engine.now t.engine; msg } t.queue;
  if not t.busy then start_next t

let messages_sent t = t.sent
let busy t = t.busy

let reset t =
  Queue.clear t.queue;
  t.busy <- false;
  t.sent <- 0
