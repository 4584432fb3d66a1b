(* Wall-clock spans recorded from outside the library.

   The benchmark wraps each call it makes into a layer's public
   functions in a span: name, start, end, parent span, item id and
   domain.  Spans go to per-domain in-memory buffers (no lock on the
   recording path) and are only read back once the traced work call
   has returned.  A disabled tracer costs one boolean test per call
   site, so the same code can run traced and untraced. *)

type span = {
  id : int;
  name : string;  (** ["<layer>.<what>"], e.g. ["machine.cached"] *)
  parent : int;  (** [-1] for roots *)
  item : int;  (** [-1] when the span is not about one item *)
  domain : int;
  t0 : int;  (** monotonic clock, ns *)
  t1 : int;
  alloc_w : float;  (** words this domain allocated during the span *)
  args : (string * int) list;
}

type local = { gen : int; mutable spans : span list; mutable stack : int list }

type t = {
  on : bool;
  t_gen : int;
  next : int Atomic.t;
  region : int Atomic.t;
  lock : Mutex.t;
  mutable locals : local list;
}

let ns () = Int64.to_int (Monotonic_clock.now ())

(* Seconds on the monotonic clock the spans use. *)
let now () = float_of_int (ns ()) *. 1e-9

let generations = Atomic.make 0

let create on =
  {
    on;
    t_gen = Atomic.fetch_and_add generations 1;
    next = Atomic.make 0;
    region = Atomic.make (-1);
    lock = Mutex.create ();
    locals = [];
  }

let off = create false

let local_key =
  Domain.DLS.new_key (fun () -> { gen = -1; spans = []; stack = [] })

(* This domain's buffer for tracer [t], registered on first use. *)
let local t =
  let l = Domain.DLS.get local_key in
  if l.gen = t.t_gen then l
  else begin
    let l = { gen = t.t_gen; spans = []; stack = [] } in
    Domain.DLS.set local_key l;
    Mutex.protect t.lock (fun () -> t.locals <- l :: t.locals);
    l
  end

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Only [t0, t1] is the span; the bookkeeping around it is kept short
   because it lands in the parent's self time.  Allocation is counted
   only where asked: reading the GC counters costs more than a clock. *)
let record t ?(item = -1) ?(alloc = false) ~args name f =
  let l = local t in
  let id = Atomic.fetch_and_add t.next 1 in
  (* A domain with no open span is a parallel worker: its spans hang
     off the region span that launched it. *)
  let parent = match l.stack with p :: _ -> p | [] -> Atomic.get t.region in
  l.stack <- id :: l.stack;
  let a0 = if alloc then allocated () else 0. in
  let t0 = ns () in
  let push args =
    let t1 = ns () in
    let alloc_w = if alloc then allocated () -. a0 else 0. in
    l.stack <- List.tl l.stack;
    l.spans <-
      { id; name; parent; item; domain = (Domain.self () :> int); t0; t1; alloc_w; args }
      :: l.spans
  in
  match f () with
  | r ->
    push (args r);
    r
  | exception e ->
    push [];
    raise e

let span t ?item ?alloc ?(args = fun _ -> []) name f =
  if not t.on then f () else record t ?item ?alloc ~args name f

(* A span whose body fans out to other domains: their spans take it as
   parent. *)
let region t name f =
  if not t.on then f ()
  else
    record t ~args:(fun _ -> []) name (fun () ->
        let l = local t in
        let saved = Atomic.get t.region in
        Atomic.set t.region (List.hd l.stack);
        Fun.protect ~finally:(fun () -> Atomic.set t.region saved) f)

let spans t =
  Mutex.protect t.lock (fun () -> List.concat_map (fun l -> l.spans) t.locals)
  |> List.sort (fun a b -> compare a.id b.id)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let duration s = float_of_int (s.t1 - s.t0) *. 1e-9

(* Length of the union of intervals, clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, (ca, cb) =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total + (cb - ca), (a, b)) else (total, (ca, max cb b)))
      (0, (lo, lo)) clipped
  in
  total + (cb - ca)

(* A span's self time in seconds: its duration minus the part of it
   that child spans (on any domain) cover. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, float_of_int (s.t1 - s.t0 - covered ~lo:s.t0 ~hi:s.t1 kids) *. 1e-9))
    spans

(* Chrome trace-event JSON (loads in Perfetto): one complete event per
   span, one thread per domain, timestamps in microseconds. *)
let perfetto spans =
  let module J = Wo_obs.Json in
  let epoch = List.fold_left (fun m s -> min m s.t0) max_int spans in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.name);
                   ("cat", J.String (layer s.name));
                   ("ph", J.String "X");
                   ("ts", J.Float (float_of_int (s.t0 - epoch) *. 1e-3));
                   ("dur", J.Float (float_of_int (s.t1 - s.t0) *. 1e-3));
                   ("pid", J.Int 1);
                   ("tid", J.Int s.domain);
                   ( "args",
                     J.Obj
                       ([
                          ("id", J.Int s.id);
                          ("parent", J.Int s.parent);
                          ("item", J.Int s.item);
                          ("alloc_w", J.Float s.alloc_w);
                        ]
                       @ List.map (fun (k, v) -> (k, J.Int v)) s.args) );
                 ])
             spans) );
      ("displayTimeUnit", J.String "ms");
    ]
