(* The model-aware reference explorer.

   For a loop-free program and a hardware ordering model
   ({!Wo_core.Sync_model.hardware}) this computes every outcome the
   model allows, by a stateful search over an abstract operational
   machine: per-processor store buffers are explicit state, and draining
   one buffered write to memory is a scheduling step like any other.
   The simulated machines ({!Wo_machines.Ordering}) implement the same
   models with real timing; their reachable outcomes are a subset of
   what this explorer produces, which is exactly the compliance contract
   `wo difftest` checks for racy programs.

   The abstract machine:
   - a data write deposits into the processor's buffer; a drain step
     applies the oldest eligible entry to memory — the FIFO head under
     TSO, the oldest entry of any one location when W->W is relaxed
     (PSO/RA);
   - a data read returns the youngest of the processor's own pending
     writes to the location (store-to-load forwarding) or, failing
     that, current memory — overtaking pending writes to other
     locations (W->R);
   - synchronization and fences require an empty buffer (drain-then-
     issue) and act directly on memory; under [Acquire_no_drain] (RA)
     read-only synchronization skips the drain requirement, like a data
     read.

   A model with no relaxation never buffers, so its allowed set is the
   SC set: that case is the stateful SC search
   ({!Enumerate.outcomes_stateful}), and the explorer below handles the
   buffering models only.

   The explorer runs over the compiled program ({!Prog_compile}): pcs,
   registers and memory are int arrays and each buffer is a flat array
   of (location index, value) pairs, oldest first.  Three reductions
   keep the state space small without losing outcomes:

   - Eager local settling.  Local ops, data writes (an enqueue into the
     processor's own buffer) and fences met with an empty buffer run as
     part of the preceding step.  Each touches only its own processor's
     state and commutes with every other processor's steps and with the
     processor's own drains, so it is a persistent singleton.
   - Packed state keys.  A state is keyed by a varint encoding of
     (pcs, registers, memory, buffers) in a {!Visited} table, which
     verifies the full key on every hit, so merges stay exact.
   - Sleep sets over scheduling steps.  An action is "issue p's next
     memory operation" or "drain p's drainable entry for location l".
     Two actions of one processor are always dependent; actions of
     different processors are dependent only if they touch the same
     location and at least one writes memory.  Sleep sets are bitsets
     with one bit per (processor, action slot), claimed in the visited
     table under Godefroid's discipline, as the stateful SC search does.
     A program needing more than 62 slots runs with empty sleep sets. *)

module SM = Wo_core.Sync_model
module P = Prog_compile

exception Too_many_states of int

module Outcome_set = Set.Make (Outcome)

let stride = P.op_stride

(* Persistent: a step copies the arrays it changes.  [bufs.(p)] holds
   processor [p]'s pending writes as [|l0; v0; l1; v1; ...|], oldest
   first. *)
type state = {
  pcs : int array;
  regs : int array;
  mem : int array;
  bufs : int array array;
}

type ctx = {
  cp : P.t;
  fifo : bool;  (* W->W kept: only the buffer head drains *)
  forwarding : bool;
  acquire_no_drain : bool;
  issue_bit : int array;  (* per processor: its issue slot's sleep bit *)
  drain_bits : (int * int) array array;
      (* per processor: (location index, sleep bit) of each drain slot;
         under [fifo] one slot, location -1, for the head *)
}

(* A scheduling step: [drain] is the index of the buffered pair to
   drain, or -1 for issuing the processor's next memory operation. *)
type action = { proc : int; drain : int; loc : int; writes : bool; bit : int }

let independent a b =
  a.proc <> b.proc && (a.loc <> b.loc || not (a.writes || b.writes))

(* Sleep bits: one issue slot per processor, plus one drain slot (FIFO)
   or one per location the processor's data writes name.  Past 62 slots
   every bit is 0, i.e. sleep sets stay empty. *)
let make_ctx (hw : SM.hardware) cp =
  let fifo = not (SM.relaxes hw SM.W_to_w) in
  let written p =
    let code = cp.P.code.(p) in
    let rec go pc acc =
      if pc >= Array.length code then List.rev acc
      else
        go (pc + stride)
          (if code.(pc) = P.o_write && not (List.mem code.(pc + 1) acc) then
             code.(pc + 1) :: acc
           else acc)
    in
    if fifo then [ -1 ] else go 0 []
  in
  let slots = Array.init cp.P.nprocs written in
  let total =
    Array.fold_left (fun n ls -> n + 1 + List.length ls) 0 slots
  in
  let next = ref 0 in
  let bit () =
    if total > 62 then 0
    else begin
      incr next;
      1 lsl (!next - 1)
    end
  in
  let issue_bit = Array.make cp.P.nprocs 0 in
  let drain_bits =
    Array.mapi
      (fun p ls ->
        issue_bit.(p) <- bit ();
        Array.of_list (List.map (fun l -> (l, bit ())) ls))
      slots
  in
  {
    cp;
    fifo;
    forwarding = hw.SM.forwarding;
    acquire_no_drain = SM.relaxes hw SM.Acquire_no_drain;
    issue_bit;
    drain_bits;
  }

let drain_bit c p loc =
  let slots = c.drain_bits.(p) in
  if c.fifo then snd slots.(0)
  else
    let rec find i =
      if fst slots.(i) = loc then snd slots.(i) else find (i + 1)
    in
    find 0

(* The youngest pending write of [buf] to [loc], if any. *)
let forwarded buf loc =
  let rec go i =
    if i < 0 then None
    else if buf.(i) = loc then Some buf.(i + 1)
    else go (i - 2)
  in
  go (Array.length buf - 2)

let enqueue buf loc v =
  let n = Array.length buf in
  let b = Array.make (n + 2) v in
  Array.blit buf 0 b 0 n;
  b.(n) <- loc;
  b

let remove_pair buf i =
  let n = Array.length buf in
  let b = Array.make (n - 2) 0 in
  Array.blit buf 0 b 0 (2 * i);
  Array.blit buf ((2 * i) + 2) b (2 * i) (n - (2 * i) - 2);
  b

(* Run [p]'s local ops until a memory op that needs scheduling or the
   end of its code: assignments and control flow, data writes (enqueued
   into its buffer) and fences met with an empty buffer.  [pcs] and
   [bufs] are the caller's private copies and are updated in place; the
   register file is copied on its first write unless [owned]. *)
let settle cp st p ~owned =
  let code = cp.P.code.(p) in
  let len = Array.length code in
  let regs = ref st.regs and owned = ref owned in
  let rec go pc =
    if pc >= len then pc
    else
      let o = code.(pc) in
      if o = P.o_write then begin
        let v = Cinterp.eval cp !regs code.(pc + 2) in
        st.bufs.(p) <- enqueue st.bufs.(p) code.(pc + 1) v;
        go (pc + stride)
      end
      else if o = P.o_assign then begin
        let v = Cinterp.eval cp !regs code.(pc + 2) in
        if not !owned then begin
          regs := Array.copy !regs;
          owned := true
        end;
        !regs.(code.(pc + 1)) <- v;
        go (pc + stride)
      end
      else if o = P.o_jmp then go code.(pc + 1)
      else if o = P.o_jif then
        if Cinterp.eval cp !regs code.(pc + 1) <> 0 then go (pc + stride)
        else go code.(pc + 2)
      else if o = P.o_nop || (o = P.o_fence && Array.length st.bufs.(p) = 0)
      then go (pc + stride)
      else pc
  in
  st.pcs.(p) <- go st.pcs.(p);
  { st with regs = !regs }

(* Every enabled action, processors ascending, issue before drains. *)
let actions c st =
  let acc = ref [] in
  for p = c.cp.P.nprocs - 1 downto 0 do
    let buf = st.bufs.(p) in
    let n = Array.length buf / 2 in
    let drain i =
      let loc = buf.(2 * i) in
      acc :=
        { proc = p; drain = i; loc; writes = true; bit = drain_bit c p loc }
        :: !acc
    in
    if c.fifo then (if n > 0 then drain 0)
    else
      for i = n - 1 downto 0 do
        (* the oldest entry of each location *)
        let loc = buf.(2 * i) in
        let rec older j = j < i && (buf.(2 * j) = loc || older (j + 1)) in
        if not (older 0) then drain i
      done;
    let code = c.cp.P.code.(p) in
    let pc = st.pcs.(p) in
    if pc < Array.length code then begin
      let o = code.(pc) in
      let quiet = n = 0 in
      let issue loc writes =
        acc :=
          { proc = p; drain = -1; loc; writes; bit = c.issue_bit.(p) } :: !acc
      in
      if o = P.o_read then begin
        let loc = code.(pc + 2) in
        if c.forwarding || forwarded buf loc = None then issue loc false
      end
      else if o = P.o_sync_read then begin
        if quiet || c.acquire_no_drain then issue code.(pc + 2) false
      end
      else if o = P.o_sync_write then begin
        if quiet then issue code.(pc + 1) true
      end
      else if o = P.o_tas || o = P.o_faa then begin
        if quiet then issue code.(pc + 2) true
      end
      (* a fence waits for the drains that empty its buffer *)
    end
  done;
  !acc

let step c st a =
  let cp = c.cp and p = a.proc in
  let pcs = Array.copy st.pcs and bufs = Array.copy st.bufs in
  if a.drain >= 0 then begin
    let buf = st.bufs.(p) in
    let mem = Array.copy st.mem in
    mem.(buf.(2 * a.drain)) <- buf.((2 * a.drain) + 1);
    bufs.(p) <- remove_pair buf a.drain;
    settle cp { pcs; regs = st.regs; mem; bufs } p ~owned:false
  end
  else begin
    let code = cp.P.code.(p) in
    let pc = st.pcs.(p) in
    let o = code.(pc) in
    pcs.(p) <- pc + stride;
    let load r v ~mem =
      let regs = Array.copy st.regs in
      regs.(r) <- v;
      settle cp { pcs; regs; mem; bufs } p ~owned:true
    in
    let store loc v =
      let mem = Array.copy st.mem in
      mem.(loc) <- v;
      mem
    in
    if o = P.o_read || o = P.o_sync_read then begin
      let loc = code.(pc + 2) in
      let v =
        match if c.forwarding then forwarded st.bufs.(p) loc else None with
        | Some v -> v
        | None -> st.mem.(loc)
      in
      load code.(pc + 1) v ~mem:st.mem
    end
    else if o = P.o_sync_write then
      settle cp
        {
          pcs;
          regs = st.regs;
          mem = store code.(pc + 1) (Cinterp.eval cp st.regs code.(pc + 2));
          bufs;
        }
        p ~owned:false
    else begin
      (* test-and-set / fetch-and-add *)
      let loc = code.(pc + 2) in
      let old = st.mem.(loc) in
      let v =
        if o = P.o_tas then 1 else old + Cinterp.eval cp st.regs code.(pc + 3)
      in
      load code.(pc + 1) old ~mem:(store loc v)
    end
  end

(* Injective on states of one compiled program: the field counts are
   fixed and each buffer is length-prefixed. *)
let key b st =
  Buffer.clear b;
  let emit a =
    for i = 0 to Array.length a - 1 do
      P.emit_varint b a.(i)
    done
  in
  Array.iter (fun pc -> P.emit_varint b (pc / stride)) st.pcs;
  emit st.regs;
  emit st.mem;
  Array.iter
    (fun buf ->
      P.emit_varint b (Array.length buf);
      emit buf)
    st.bufs;
  Buffer.contents b

let outcome cp st =
  Outcome.make
    ~registers:
      (Array.to_list cp.P.obs_regs
      |> List.map (fun (p, r, flat) -> (p, r, st.regs.(flat))))
    ~memory:
      (Array.to_list (Array.mapi (fun i l -> (l, st.mem.(i))) cp.P.locs))

let buffered_outcomes ~max_states hw cp =
  let c = make_ctx hw cp in
  let tbl = Visited.create ~shards:1 () in
  let b = Buffer.create 64 in
  let results = ref Outcome_set.empty in
  let rec explore st sleep =
    match Visited.try_claim tbl (key b st) sleep with
    | `Skip -> ()
    | `Explore sleep -> (
      if Visited.size tbl > max_states then
        raise (Too_many_states max_states);
      match actions c st with
      | [] -> results := Outcome_set.add (outcome cp st) !results
      | acts ->
        let enabled = List.fold_left (fun m a -> m lor a.bit) 0 acts in
        let sleep = ref (sleep land enabled) in
        List.iter
          (fun a ->
            if !sleep land a.bit = 0 then begin
              let child_sleep =
                List.fold_left
                  (fun m x ->
                    if !sleep land x.bit <> 0 && independent a x then
                      m lor x.bit
                    else m)
                  0 acts
              in
              explore (step c st a) child_sleep;
              sleep := !sleep lor a.bit
            end)
          acts)
  in
  let nprocs = cp.P.nprocs in
  let init =
    {
      pcs = Array.make nprocs 0;
      regs = Array.make (max cp.P.nregs 1) 0;
      mem = Array.copy cp.P.init_mem;
      bufs = Array.make nprocs [||];
    }
  in
  let init =
    let rec go st p =
      if p = nprocs then st else go (settle cp st p ~owned:true) (p + 1)
    in
    go init 0
  in
  explore init 0;
  Outcome_set.elements !results

let outcomes ?(max_states = 2_000_000) (hw : SM.hardware) (program : Program.t)
    : Outcome.t list =
  if Program.has_loops program then
    invalid_arg "Relaxed.outcomes: program has loops";
  if hw.SM.relaxations = [] then
    match Enumerate.outcomes_stateful ~domains:1 program with
    | outs, _ -> outs
    | exception Enumerate.Limit_exceeded -> raise (Too_many_states max_states)
  else
    match Prog_compile.compile program with
    | None -> raise (Too_many_states max_states)
    | Some cp -> buffered_outcomes ~max_states hw cp
