module type S = sig
  type t

  type stop_reason = [ `Idle | `Time_limit | `Event_limit ]

  val create : unit -> t
  val now : t -> int
  val schedule : t -> delay:int -> (unit -> unit) -> unit
  val schedule_at : t -> time:int -> (unit -> unit) -> unit
  val pending : t -> int
  val run : ?max_time:int -> ?max_events:int -> t -> stop_reason
end

(* Array-backed indexed binary min-heap ordered lexicographically by
   [(time, seq)].  [seq] rises monotonically across the engine's lifetime,
   which buys two properties at once: same-tick FIFO, and
   schedule-during-execution lands *after* everything already queued for
   the tick — the batch semantics of the old map-of-lists implementation,
   without materializing batches.

   The heap proper is three parallel [int] arrays (time, seq, and a slot
   index into the closure table), so sift swaps move only immediate
   integers — no write barrier, no allocation.  The closure itself is
   written exactly twice per event (parked at insert, cleared at pop);
   keeping pointers out of the sift loop is what lets the heap beat the
   map-of-lists engine, whose per-event cost is dominated by rebuilding
   balanced-tree spines. *)

type t = {
  mutable now : int;
  mutable times : int array; (* heap-ordered *)
  mutable seqs : int array; (* heap-ordered, same layout as times *)
  mutable slots : int array; (* heap position -> closure-table index *)
  mutable fns : (unit -> unit) array; (* closure table *)
  mutable free : int array; (* stack of free closure-table indices *)
  mutable free_top : int;
  mutable size : int;
  mutable seq : int;
}

type stop_reason = [ `Idle | `Time_limit | `Event_limit ]

let initial_capacity = 64

let create () =
  {
    now = 0;
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    slots = Array.make initial_capacity 0;
    fns = Array.make initial_capacity ignore;
    free = Array.init initial_capacity (fun i -> i);
    free_top = initial_capacity;
    size = 0;
    seq = 0;
  }

let now t = t.now

let pending t = t.size

(* Full clear, not just [size <- 0]: a run aborted by a time/event limit
   leaves parked closures in [fns] and a partially-consumed free stack,
   so every slot is reset and every closure dropped — the cleared engine
   retains nothing from the previous simulation and schedules events in
   exactly the order a fresh [create] would (time 0, seq 0). *)
let clear t =
  t.now <- 0;
  t.size <- 0;
  t.seq <- 0;
  let cap = Array.length t.times in
  for i = 0 to cap - 1 do
    t.free.(i) <- i;
    t.fns.(i) <- ignore
  done;
  t.free_top <- cap

let grow t =
  let cap = Array.length t.times in
  let extend a fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.fns <- extend t.fns ignore;
  t.free <- extend t.free 0;
  (* grow only runs with capacity = size, so the free stack is empty:
     refill it with the fresh closure-table indices. *)
  for i = 0 to cap - 1 do
    t.free.(i) <- cap + i
  done;
  t.free_top <- cap

(* Both sifts carry the moving (time, seq, slot) triple in locals and
   write each visited node once ("hole" technique): one comparison and
   three stores per level instead of a full three-array swap.  The
   unsafe accesses are bounds-safe by construction — every index is a
   parent or child index of a position < t.size <= Array.length. *)

let rec sift_up t i kt ks kslot =
  if i = 0 then begin
    Array.unsafe_set t.times 0 kt;
    Array.unsafe_set t.seqs 0 ks;
    Array.unsafe_set t.slots 0 kslot
  end
  else begin
    let p = (i - 1) / 2 in
    let pt = Array.unsafe_get t.times p in
    if pt > kt || (pt = kt && Array.unsafe_get t.seqs p > ks) then begin
      Array.unsafe_set t.times i pt;
      Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs p);
      Array.unsafe_set t.slots i (Array.unsafe_get t.slots p);
      sift_up t p kt ks kslot
    end
    else begin
      Array.unsafe_set t.times i kt;
      Array.unsafe_set t.seqs i ks;
      Array.unsafe_set t.slots i kslot
    end
  end

let rec sift_down t i kt ks kslot =
  let l = (2 * i) + 1 in
  if l >= t.size then begin
    Array.unsafe_set t.times i kt;
    Array.unsafe_set t.seqs i ks;
    Array.unsafe_set t.slots i kslot
  end
  else begin
    (* pick the smaller child *)
    let c =
      let r = l + 1 in
      if r < t.size then begin
        let lt = Array.unsafe_get t.times l
        and rt = Array.unsafe_get t.times r in
        if
          rt < lt
          || (rt = lt && Array.unsafe_get t.seqs r < Array.unsafe_get t.seqs l)
        then r
        else l
      end
      else l
    in
    let ct = Array.unsafe_get t.times c in
    if ct < kt || (ct = kt && Array.unsafe_get t.seqs c < ks) then begin
      Array.unsafe_set t.times i ct;
      Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs c);
      Array.unsafe_set t.slots i (Array.unsafe_get t.slots c);
      sift_down t c kt ks kslot
    end
    else begin
      Array.unsafe_set t.times i kt;
      Array.unsafe_set t.seqs i ks;
      Array.unsafe_set t.slots i kslot
    end
  end

let schedule_at t ~time f =
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  if t.size = Array.length t.times then grow t;
  let slot = t.free.(t.free_top - 1) in
  t.free_top <- t.free_top - 1;
  t.fns.(slot) <- f;
  let i = t.size in
  t.size <- t.size + 1;
  sift_up t i time t.seq slot;
  t.seq <- t.seq + 1

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now + delay) f

(* Sound exactly when no pending event is due at or before the target
   tick: then the evented execution would pop our continuation next
   anyway, with nothing running in between to claim a sequence number.
   Advancing [now] and burning one seq reproduces the evented (time,
   seq) assignment for every subsequent [schedule], so execution order —
   and therefore every simulation observable — is unchanged. *)
let try_step_inline t ~delay =
  if delay < 0 then invalid_arg "Engine.try_step_inline: negative delay";
  if t.size > 0 && Array.unsafe_get t.times 0 <= t.now + delay then false
  else begin
    t.now <- t.now + delay;
    t.seq <- t.seq + 1;
    true
  end

(* Pop the minimum, clearing its closure slot so the engine does not
   retain the closure (and whatever simulation state it captures) after
   execution. *)
let pop t =
  let slot = t.slots.(0) in
  let f = t.fns.(slot) in
  t.fns.(slot) <- ignore;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.size <- t.size - 1;
  if t.size > 0 then begin
    let last = t.size in
    sift_down t 0 t.times.(last) t.seqs.(last) t.slots.(last)
  end;
  f

let run ?max_time ?(max_events = 50_000_000) t =
  let executed = ref 0 in
  let rec loop () =
    if t.size = 0 then `Idle
    else begin
      let time = t.times.(0) in
      if (match max_time with Some m -> time > m | None -> false) then
        `Time_limit
      else if !executed >= max_events then `Event_limit
      else begin
        let f = pop t in
        t.now <- time;
        incr executed;
        f ();
        loop ()
      end
    end
  in
  loop ()
