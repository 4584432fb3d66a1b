type entry = { loc : Wo_core.Event.loc; value : Wo_core.Event.value; tag : int }

type t = {
  depth : int;
  queue : entry Queue.t;
  mutable empty_waiters : (unit -> unit) list;
  mutable slot_waiters : (unit -> unit) list;
}

let create ~depth =
  if depth <= 0 then invalid_arg "Write_buffer.create: depth must be positive";
  { depth; queue = Queue.create (); empty_waiters = []; slot_waiters = [] }

let clear t =
  Queue.clear t.queue;
  t.empty_waiters <- [];
  t.slot_waiters <- []

let is_empty t = Queue.is_empty t.queue
let size t = Queue.length t.queue
let depth t = t.depth

let push t e =
  if Queue.length t.queue >= t.depth then false
  else begin
    Queue.add e t.queue;
    true
  end

let pop t = Queue.take_opt t.queue

let newest_for t loc =
  Queue.fold
    (fun acc e -> if e.loc = loc then Some e else acc)
    None t.queue

let has_loc t loc = newest_for t loc <> None

let on_empty t f =
  if is_empty t then f () else t.empty_waiters <- f :: t.empty_waiters

let on_not_full t f =
  if size t < t.depth then f () else t.slot_waiters <- f :: t.slot_waiters

let notify t =
  if is_empty t then begin
    let ws = t.empty_waiters in
    t.empty_waiters <- [];
    List.iter (fun f -> f ()) ws
  end;
  if size t < t.depth then begin
    let ws = t.slot_waiters in
    t.slot_waiters <- [];
    List.iter (fun f -> f ()) ws
  end
