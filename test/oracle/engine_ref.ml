(* The original [Map.Make(Int)]-of-lists engine, kept verbatim as the
   oracle: the heap engine is property-tested to execute arbitrary
   schedule sequences in the same order (test_sim), and E11 benches the
   two against each other.  Implements {!Wo_sim.Engine.S}. *)

module Time_map = Map.Make (Int)

type t = {
  mutable now : int;
  (* time -> events in reverse scheduling order *)
  mutable queue : (unit -> unit) list Time_map.t;
  mutable pending : int;
}

type stop_reason = [ `Idle | `Time_limit | `Event_limit ]

let create () = { now = 0; queue = Time_map.empty; pending = 0 }

let now t = t.now

let schedule_at t ~time f =
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  let existing =
    match Time_map.find_opt time t.queue with None -> [] | Some l -> l
  in
  t.queue <- Time_map.add time (f :: existing) t.queue;
  t.pending <- t.pending + 1

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now + delay) f

let pending t = t.pending

let run ?max_time ?(max_events = 50_000_000) t =
  let executed = ref 0 in
  let rec loop () =
    match Time_map.min_binding_opt t.queue with
    | None -> `Idle
    | Some (time, events) ->
      if (match max_time with Some m -> time > m | None -> false) then
        `Time_limit
      else if !executed >= max_events then `Event_limit
      else begin
        t.queue <- Time_map.remove time t.queue;
        t.now <- time;
        let in_order = List.rev events in
        t.pending <- t.pending - List.length in_order;
        List.iter
          (fun f ->
            incr executed;
            f ())
          in_order;
        loop ()
      end
  in
  loop ()
