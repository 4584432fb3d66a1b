type 'msg t = {
  engine : Wo_sim.Engine.t;
  stats : Wo_sim.Stats.t;
  messages : Wo_sim.Stats.slot;
  tap : ('msg -> src:int -> dst:int -> latency:int -> unit) option;
  latency : Latency.t;
  handlers : (int, 'msg -> unit) Hashtbl.t;
  mutable sent : int;
}

let create ~engine ?(stats = Wo_sim.Stats.create ()) ?tap ~latency () =
  {
    engine;
    stats;
    messages = Wo_sim.Stats.slot stats "network.messages";
    tap;
    latency;
    handlers = Hashtbl.create 17;
    sent = 0;
  }

let connect t ~node handler = Hashtbl.replace t.handlers node handler

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  Wo_sim.Stats.incr_at t.stats t.messages;
  let delay = max 1 (t.latency ~src ~dst) in
  (match t.tap with
  | Some tap -> tap msg ~src ~dst ~latency:delay
  | None -> ());
  Wo_sim.Engine.schedule t.engine ~delay (fun () ->
      match Hashtbl.find_opt t.handlers dst with
      | Some handler -> handler msg
      | None -> invalid_arg (Printf.sprintf "Network.send: no handler for node %d" dst))

let messages_sent t = t.sent

let reset t = t.sent <- 0
