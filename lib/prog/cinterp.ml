(* Compiled interpreter — the idealized architecture over flat int arrays.

   A state is (pcs, regs, mem, seqs) plus the event log; step/peek
   mirror the test-only AST interpreter's step/peek exactly (same
   events, same runnable discipline, same local-step folding).
   Persistence is by copy-on-write: [advance] copies the register file
   only if a local op writes, memory is copied only by memory-writing
   steps, so branching costs a handful of small int-array copies. *)

module P = Prog_compile

let stride = P.op_stride

let max_local_steps = 100_000

exception Local_divergence of Wo_core.Event.proc

type access = { loc : Wo_core.Event.loc; writes : bool; sync : bool }

type state = {
  prog : P.t;
  pcs : int array;  (* per proc: offset into [prog.code.(p)] *)
  regs : int array;  (* flat register file, default 0 *)
  mem : int array;  (* per location index *)
  seqs : int array;
  next_event_id : int;
  events_rev : Wo_core.Event.t list;
}

let init prog =
  {
    prog;
    pcs = Array.make prog.P.nprocs 0;
    regs = Array.make (max prog.P.nregs 1) 0;
    mem = Array.copy prog.P.init_mem;
    seqs = Array.make prog.P.nprocs 0;
    next_event_id = 0;
    events_rev = [];
  }

let compiled st = st.prog

(* --- expression evaluation -------------------------------------------------- *)

let eval_postfix t regs e =
  let off = t.P.e_arg.(e) and len = t.P.e_len.(e) in
  let stack = Array.make t.P.max_stack 0 in
  let sp = ref 0 in
  for i = 0 to len - 1 do
    let tag = t.P.epool.(off + (2 * i)) in
    let arg = t.P.epool.(off + (2 * i) + 1) in
    if tag = P.p_const then begin
      stack.(!sp) <- arg;
      incr sp
    end
    else if tag = P.p_reg then begin
      stack.(!sp) <- regs.(arg);
      incr sp
    end
    else begin
      let b = stack.(!sp - 1) and a = stack.(!sp - 2) in
      sp := !sp - 2;
      let v =
        if tag = P.p_add then a + b
        else if tag = P.p_sub then a - b
        else if tag = P.p_mul then a * b
        else if tag = P.p_eq then if a = b then 1 else 0
        else if tag = P.p_ne then if a <> b then 1 else 0
        else if tag = P.p_lt then if a < b then 1 else 0
        else if a <= b then 1
        else 0
      in
      stack.(!sp) <- v;
      incr sp
    end
  done;
  stack.(0)

let eval t regs e =
  let k = t.P.e_kind.(e) in
  if k = P.e_const then t.P.e_arg.(e)
  else if k = P.e_reg then regs.(t.P.e_arg.(e))
  else eval_postfix t regs e

(* --- local control flow ----------------------------------------------------- *)

(* Unfold local ops from the processor's pc until a memory op or the end
   of the code, mirroring the AST oracle's advance.  The returned
   register file is the input one if no local op wrote (physically —
   callers test with [==] before mutating further). *)
let advance st proc =
  let t = st.prog in
  let code = t.P.code.(proc) in
  let len = Array.length code in
  let regs = ref st.regs in
  let owned = ref false in
  let wr r v =
    if not !owned then begin
      regs := Array.copy !regs;
      owned := true
    end;
    !regs.(r) <- v
  in
  let rec go pc budget =
    if budget = 0 then raise (Local_divergence proc);
    if pc >= len then `Finished !regs
    else begin
      let o = code.(pc) in
      if o <= P.o_faa then `Memory (!regs, pc)
      else if o = P.o_assign then begin
        wr code.(pc + 1) (eval t !regs code.(pc + 2));
        go (pc + stride) (budget - 1)
      end
      else if o = P.o_jmp then go code.(pc + 1) (budget - 1)
      else if o = P.o_jif then
        if eval t !regs code.(pc + 1) <> 0 then go (pc + stride) (budget - 1)
        else go code.(pc + 2) (budget - 1)
      else (* nop / fence *) go (pc + stride) (budget - 1)
    end
  in
  go st.pcs.(proc) max_local_steps

(* --- stepping --------------------------------------------------------------- *)

let runnable st =
  let rec go p acc =
    if p < 0 then acc
    else
      go (p - 1)
        (if st.pcs.(p) < Array.length st.prog.P.code.(p) then p :: acc else acc)
  in
  go (st.prog.P.nprocs - 1) []

let finished st =
  let rec go p =
    p < 0 || (st.pcs.(p) >= Array.length st.prog.P.code.(p) && go (p - 1))
  in
  go (st.prog.P.nprocs - 1)

let access_at t code pc =
  let o = code.(pc) in
  let li = if o = P.o_write || o = P.o_sync_write then code.(pc + 1) else code.(pc + 2) in
  Some
    {
      loc = t.P.locs.(li);
      writes = o <> P.o_read && o <> P.o_sync_read;
      sync = o >= P.o_sync_read;
    }

(* Fast path: a pc already at a memory op needs no local unfolding. *)
let peek st proc =
  let t = st.prog in
  let code = t.P.code.(proc) in
  let pc = st.pcs.(proc) in
  if pc < Array.length code && code.(pc) <= P.o_faa then access_at t code pc
  else
    match advance st proc with
    | `Finished _ -> None
    | `Memory (_, pc) -> access_at t code pc

let step st proc =
  let t = st.prog in
  let code = t.P.code.(proc) in
  let len = Array.length code in
  if st.pcs.(proc) >= len then
    invalid_arg "Cinterp.step: processor already finished";
  match advance st proc with
  | `Finished regs ->
    let pcs = Array.copy st.pcs in
    pcs.(proc) <- len;
    ({ st with pcs; regs }, None)
  | `Memory (regs0, pc) ->
    let seq = st.seqs.(proc) in
    let id = st.next_event_id in
    let mk kind loc ?read_value ?written_value () =
      Wo_core.Event.make ~id ~proc ~seq ~kind ~loc ?read_value ?written_value ()
    in
    (* [regs0] is either a private copy made by [advance] or still the
       parent's array; own it before the first register write. *)
    let own regs = if regs == st.regs then Array.copy regs else regs in
    let o = code.(pc) in
    let ev, regs, mem =
      if o = P.o_read || o = P.o_sync_read then begin
        let r = code.(pc + 1) and li = code.(pc + 2) in
        let v = st.mem.(li) in
        let regs = own regs0 in
        regs.(r) <- v;
        let kind =
          if o = P.o_read then Wo_core.Event.Data_read
          else Wo_core.Event.Sync_read
        in
        (mk kind t.P.locs.(li) ~read_value:v (), regs, st.mem)
      end
      else if o = P.o_write || o = P.o_sync_write then begin
        let li = code.(pc + 1) and e = code.(pc + 2) in
        let v = eval t regs0 e in
        let mem = Array.copy st.mem in
        mem.(li) <- v;
        let kind =
          if o = P.o_write then Wo_core.Event.Data_write
          else Wo_core.Event.Sync_write
        in
        (mk kind t.P.locs.(li) ~written_value:v (), regs0, mem)
      end
      else if o = P.o_tas then begin
        let r = code.(pc + 1) and li = code.(pc + 2) in
        let old = st.mem.(li) in
        let regs = own regs0 in
        regs.(r) <- old;
        let mem = Array.copy st.mem in
        mem.(li) <- 1;
        ( mk Wo_core.Event.Sync_rmw t.P.locs.(li) ~read_value:old
            ~written_value:1 (),
          regs,
          mem )
      end
      else begin
        (* o_faa *)
        let r = code.(pc + 1) and li = code.(pc + 2) and e = code.(pc + 3) in
        let old = st.mem.(li) in
        let v = old + eval t regs0 e in
        let regs = own regs0 in
        regs.(r) <- old;
        let mem = Array.copy st.mem in
        mem.(li) <- v;
        ( mk Wo_core.Event.Sync_rmw t.P.locs.(li) ~read_value:old
            ~written_value:v (),
          regs,
          mem )
      end
    in
    let pcs = Array.copy st.pcs in
    pcs.(proc) <- pc + stride;
    let seqs = Array.copy st.seqs in
    seqs.(proc) <- seq + 1;
    ( {
        st with
        pcs;
        regs;
        mem;
        seqs;
        next_event_id = id + 1;
        events_rev = ev :: st.events_rev;
      },
      Some ev )

(* --- observation ------------------------------------------------------------ *)

let memory st =
  Array.to_list (Array.mapi (fun i l -> (l, st.mem.(i))) st.prog.P.locs)

let events_so_far st = st.next_event_id

let pc st p = st.pcs.(p)

let reg st i = st.regs.(i)

let load st li = st.mem.(li)

let outcome st =
  let registers =
    Array.to_list st.prog.P.obs_regs
    |> List.map (fun (p, r, flat) -> (p, r, st.regs.(flat)))
  in
  Outcome.make ~registers ~memory:(memory st)

let execution st = Wo_core.Execution.of_ordered_events (List.rev st.events_rev)

(* One [Random.State.int] draw over the runnable list per step, exactly
   as the AST oracle's [run_random] schedules. *)
let run_random ~seed prog =
  let rng = Random.State.make [| seed |] in
  let rec go st =
    match runnable st with
    | [] -> st
    | rs ->
      let p = List.nth rs (Random.State.int rng (List.length rs)) in
      go (fst (step st p))
  in
  go (init prog)

(* --- packed exact keys ------------------------------------------------------ *)

(* Zigzagged LEB128 varints; self-delimiting, and the per-program field
   counts (nprocs, nregs, nlocs) are fixed, so the concatenation is
   injective on states of one compiled program. *)
let put b pos n =
  let z = ref (if n >= 0 then n lsl 1 else lnot (n lsl 1)) in
  let pos = ref pos in
  while !z >= 0x80 do
    Bytes.unsafe_set b !pos (Char.unsafe_chr (0x80 lor (!z land 0x7f)));
    z := !z lsr 7;
    incr pos
  done;
  Bytes.unsafe_set b !pos (Char.unsafe_chr !z);
  !pos + 1

let put_all b pos a =
  let pos = ref pos in
  for i = 0 to Array.length a - 1 do
    pos := put b !pos a.(i)
  done;
  !pos

let exact_key st =
  let t = st.prog in
  let worst =
    10 * (1 + t.P.nprocs + Array.length st.regs + Array.length st.mem)
  in
  let b = Bytes.create worst in
  let pos = put b 0 st.next_event_id in
  let pos = put_all b pos st.pcs in
  let pos = put_all b pos st.regs in
  let pos = put_all b pos st.mem in
  Bytes.sub_string b 0 pos

(* --- canonical DRF0 keys ---------------------------------------------------- *)

(* The key of a DRF0 search state, quotiented by location renaming,
   symmetric-thread permutation and per-coordinate rank compression of
   the happens-before metadata.  Layout, for one arrangement [order] of
   the processors:

     event count;
     per processor in [order]: class, pc, registers;
     'M', memory of each live location (reachable from some thread's
       pc), locations renamed by first occurrence scanning the threads
       in [order];
     'H', per coordinate q in [order]: the ranks of every processor's
       clock component q (processors in [order]) and of each renamed
       live location's (last write, last read, sync) component q.

   Dead locations cannot be accessed again, so their values and
   metadata are dropped.  Same-class threads have position-wise
   corresponding live streams (same code, operands related by the class
   renaming), so the composite renaming is arrangement-invariant.

   Threads with equal (class, pc, registers) signatures are
   interchangeable: every arrangement permuting within equal-signature
   groups is encoded (unless there are more than [max_arrangements];
   then only the identity order is) and the smallest encoding wins,
   the first in enumeration order on ties.  (The AST signature also
   distinguishes an unbound register from one bound to 0; compiled
   execution cannot, so merging them is sound here.)

   Everything is computed in a per-walk workspace: the metadata is read
   in place from the checker, each location looked up once per state;
   a coordinate's value set does not depend on the arrangement, so its
   ranks are counted once per state; arrangements encode into reused
   bytes and only the winner is copied out. *)

module Inc = Wo_core.Drf0_inc

let max_arrangements = 24

type key_workspace = {
  ks_prog : P.t;
  identity : int array;
  sorted : int array;  (* processors by (signature, index) *)
  group : int array;  (* starts of the equal-signature runs in [sorted] *)
  order : int array;  (* the arrangement being encoded *)
  best_order : int array;
  slot : int array;  (* per location index: its slot in [live], or -1 *)
  live : int array;  (* slot -> location index *)
  renamed : int array;  (* per slot: already renamed in this arrangement *)
  ren : int array;  (* renaming: position -> slot *)
  rclock : int array;  (* [p * nprocs + q]: rank of clock p, component q *)
  mutable rloc : int array;  (* [(slot * nprocs + q) * 3 + j]: ranks *)
  mutable count : int array;  (* per value + 1: presence, then rank *)
  mutable buf : Bytes.t;
  mutable best : Bytes.t;
}

let key_workspace (t : P.t) =
  let n = t.P.nprocs and nlocs = Array.length t.P.locs in
  {
    ks_prog = t;
    identity = Array.init n Fun.id;
    sorted = Array.make n 0;
    group = Array.make (n + 1) 0;
    order = Array.make n 0;
    best_order = Array.make n 0;
    slot = Array.make nlocs (-1);
    live = Array.make nlocs 0;
    renamed = Array.make nlocs 0;
    ren = Array.make nlocs 0;
    rclock = Array.make (n * n) 0;
    rloc = [||];
    count = [||];
    buf = Bytes.create 256;
    best = Bytes.create 256;
  }

(* Replace every value of coordinate [q] by its rank among the
   coordinate's distinct values.  Values lie in [-1, max] (epochs are -1
   or positive, clock components non-negative), so a presence array and
   a prefix sum rank them without sorting. *)
let rank_coordinate ks ~nprocs ~nlive q =
  let hi = ref (-1) in
  for p = 0 to nprocs - 1 do
    hi := Int.max !hi ks.rclock.((p * nprocs) + q)
  done;
  for k = 0 to nlive - 1 do
    let b = ((k * nprocs) + q) * 3 in
    hi := Int.max !hi (Int.max ks.rloc.(b) (Int.max ks.rloc.(b + 1) ks.rloc.(b + 2)))
  done;
  let width = !hi + 2 in
  if Array.length ks.count < width then
    ks.count <- Array.make (Int.max width (2 * Array.length ks.count)) 0
  else Array.fill ks.count 0 width 0;
  let count = ks.count in
  for p = 0 to nprocs - 1 do
    count.(ks.rclock.((p * nprocs) + q) + 1) <- 1
  done;
  for k = 0 to nlive - 1 do
    let b = ((k * nprocs) + q) * 3 in
    for j = 0 to 2 do
      count.(ks.rloc.(b + j) + 1) <- 1
    done
  done;
  let r = ref 0 in
  for i = 0 to width - 1 do
    let c = count.(i) in
    count.(i) <- !r;
    r := !r + c
  done;
  for p = 0 to nprocs - 1 do
    let i = (p * nprocs) + q in
    ks.rclock.(i) <- count.(ks.rclock.(i) + 1)
  done;
  for k = 0 to nlive - 1 do
    let b = ((k * nprocs) + q) * 3 in
    for j = 0 to 2 do
      ks.rloc.(b + j) <- count.(ks.rloc.(b + j) + 1)
    done
  done

(* Collect the live locations into slots and read their metadata and
   the clocks, ranked per coordinate.  Returns the live count; [slot]
   stays set until [release_slots]. *)
let load_ranks ks st inc =
  let t = st.prog in
  let n = t.P.nprocs in
  let nlive = ref 0 in
  for p = 0 to n - 1 do
    let ll = P.live_locs t p st.pcs.(p) in
    for i = 0 to Array.length ll - 1 do
      let li = ll.(i) in
      if ks.slot.(li) < 0 then begin
        ks.slot.(li) <- !nlive;
        ks.live.(!nlive) <- li;
        incr nlive
      end
    done
  done;
  let nlive = !nlive in
  if Array.length ks.rloc < nlive * n * 3 then
    ks.rloc <- Array.make (Int.max (nlive * n * 3) (2 * Array.length ks.rloc)) 0;
  for k = 0 to nlive - 1 do
    let lv = Inc.loc_view inc t.P.locs.(ks.live.(k)) in
    for q = 0 to n - 1 do
      let b = ((k * n) + q) * 3 in
      ks.rloc.(b) <- Inc.last_write lv q;
      ks.rloc.(b + 1) <- Inc.last_read lv q;
      ks.rloc.(b + 2) <- Inc.sync lv q
    done
  done;
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      ks.rclock.((p * n) + q) <- Inc.clock inc p q
    done
  done;
  for q = 0 to n - 1 do
    rank_coordinate ks ~nprocs:n ~nlive q
  done;
  nlive

let release_slots ks nlive =
  for k = 0 to nlive - 1 do
    ks.slot.(ks.live.(k)) <- -1
  done

(* Encode arrangement [order] into [ks.buf]; returns the length. *)
let encode_arrangement ks st ~nlive order =
  let t = st.prog in
  let n = t.P.nprocs in
  let worst =
    10 * (3 + (2 * n) + Array.length st.regs + nlive + (n * (n + (3 * nlive))))
  in
  if Bytes.length ks.buf < worst then
    ks.buf <- Bytes.create (Int.max worst (2 * Bytes.length ks.buf));
  let b = ks.buf in
  let pos = ref (put b 0 st.next_event_id) in
  for i = 0 to n - 1 do
    let p = order.(i) in
    pos := put b !pos t.P.classes.(p);
    pos := put b !pos st.pcs.(p);
    let base = t.P.reg_base.(p) in
    for r = 0 to Array.length t.P.reg_ids.(p) - 1 do
      pos := put b !pos st.regs.(base + r)
    done
  done;
  Array.fill ks.renamed 0 nlive 0;
  let nren = ref 0 in
  for i = 0 to n - 1 do
    let p = order.(i) in
    let ll = P.live_locs t p st.pcs.(p) in
    for j = 0 to Array.length ll - 1 do
      let k = ks.slot.(ll.(j)) in
      if ks.renamed.(k) = 0 then begin
        ks.renamed.(k) <- 1;
        ks.ren.(!nren) <- k;
        incr nren
      end
    done
  done;
  Bytes.unsafe_set b !pos 'M';
  incr pos;
  for r = 0 to nlive - 1 do
    pos := put b !pos st.mem.(ks.live.(ks.ren.(r)))
  done;
  Bytes.unsafe_set b !pos 'H';
  incr pos;
  for i = 0 to n - 1 do
    let q = order.(i) in
    for j = 0 to n - 1 do
      pos := put b !pos ks.rclock.((order.(j) * n) + q)
    done;
    for r = 0 to nlive - 1 do
      let c = ((ks.ren.(r) * n) + q) * 3 in
      pos := put b !pos ks.rloc.(c);
      pos := put b !pos ks.rloc.(c + 1);
      pos := put b !pos ks.rloc.(c + 2)
    done
  done;
  !pos

(* Signature order: (class, pc, registers) lexicographically, then the
   processor index — the order a polymorphic sort of (signature, p)
   tuples gives, since equal classes imply equal register counts.
   [~full:false] compares signatures only. *)
let compare_procs ~full st p1 p2 =
  let t = st.prog in
  let c = Int.compare t.P.classes.(p1) t.P.classes.(p2) in
  if c <> 0 then c
  else
    let c = Int.compare st.pcs.(p1) st.pcs.(p2) in
    if c <> 0 then c
    else begin
      let b1 = t.P.reg_base.(p1) and b2 = t.P.reg_base.(p2) in
      let nr = Array.length t.P.reg_ids.(p1) in
      let rec regs i =
        if i = nr then if full then Int.compare p1 p2 else 0
        else
          let c = Int.compare st.regs.(b1 + i) st.regs.(b2 + i) in
          if c <> 0 then c else regs (i + 1)
      in
      regs 0
    end

(* Sort processors by signature (insertion sort: nprocs is small) and
   record the equal-signature runs; returns how many there are. *)
let group_procs ks st =
  let n = st.prog.P.nprocs in
  let a = ks.sorted in
  for p = 0 to n - 1 do
    let j = ref (p - 1) in
    while !j >= 0 && compare_procs ~full:true st a.(!j) p > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- p
  done;
  let ngroups = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || compare_procs ~full:false st a.(i - 1) a.(i) <> 0 then begin
      ks.group.(!ngroups) <- i;
      incr ngroups
    end
  done;
  ks.group.(!ngroups) <- n;
  !ngroups

(* The number of arrangements (the product of the groups' factorials),
   counted no further than past the cap. *)
let count_arrangements ks ngroups =
  let acc = ref 1 in
  for g = 0 to ngroups - 1 do
    for k = 2 to ks.group.(g + 1) - ks.group.(g) do
      if !acc <= max_arrangements then acc := !acc * k
    done
  done;
  !acc

let reverse a lo hi =
  let lo = ref lo and hi = ref (hi - 1) in
  while !lo < !hi do
    let x = a.(!lo) in
    a.(!lo) <- a.(!hi);
    a.(!hi) <- x;
    incr lo;
    decr hi
  done

(* Lexicographic successor of [a.(lo..hi-1)]; false (after resetting
   the slice to ascending) when it was the last permutation. *)
let next_perm a lo hi =
  let i = ref (hi - 2) in
  while !i >= lo && a.(!i) >= a.(!i + 1) do
    decr i
  done;
  if !i < lo then begin
    reverse a lo hi;
    false
  end
  else begin
    let j = ref (hi - 1) in
    while a.(!j) <= a.(!i) do
      decr j
    done;
    let x = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- x;
    reverse a (!i + 1) hi;
    true
  end

(* Next arrangement: the groups form an odometer, the last group
   permuting fastest, each group through its permutations in
   lexicographic order from ascending. *)
let next_arrangement ks ngroups =
  let rec go g =
    g >= 0
    && (next_perm ks.order ks.group.(g) ks.group.(g + 1) || go (g - 1))
  in
  go (ngroups - 1)

let compare_bytes a alen b blen =
  let n = Int.min alen blen in
  let rec go i =
    if i = n then Int.compare alen blen
    else
      let c = Char.compare (Bytes.unsafe_get a i) (Bytes.unsafe_get b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let canonical_key ?(symmetry = true) ks st inc =
  if ks.ks_prog != st.prog then
    invalid_arg "Cinterp.canonical_key: workspace of another program";
  let n = st.prog.P.nprocs in
  let nlive = load_ranks ks st inc in
  let single order =
    let len = encode_arrangement ks st ~nlive order in
    (Bytes.sub_string ks.buf 0 len, order)
  in
  let result =
    if not symmetry then single ks.identity
    else
      let ngroups = group_procs ks st in
      let count = count_arrangements ks ngroups in
      if count > max_arrangements then single ks.identity
      else if count = 1 then single ks.sorted
      else begin
        Array.blit ks.sorted 0 ks.order 0 n;
        Array.blit ks.order 0 ks.best_order 0 n;
        let best_len = ref (encode_arrangement ks st ~nlive ks.order) in
        let swap () =
          let b = ks.best in
          ks.best <- ks.buf;
          ks.buf <- b
        in
        swap ();
        while next_arrangement ks ngroups do
          let len = encode_arrangement ks st ~nlive ks.order in
          if compare_bytes ks.buf len ks.best !best_len < 0 then begin
            swap ();
            best_len := len;
            Array.blit ks.order 0 ks.best_order 0 n
          end
        done;
        (Bytes.sub_string ks.best 0 !best_len, ks.best_order)
      end
  in
  release_slots ks nlive;
  result

(* Sleep-set transport: bit [p] of a concrete bitset is bit [i] of the
   canonical one, where [order.(i) = p]. *)
let map_sleep ~order sleep =
  let canon = ref 0 in
  Array.iteri
    (fun i p -> if sleep land (1 lsl p) <> 0 then canon := !canon lor (1 lsl i))
    order;
  !canon

let unmap_sleep ~order canon =
  let sleep = ref 0 in
  Array.iteri
    (fun i p -> if canon land (1 lsl i) <> 0 then sleep := !sleep lor (1 lsl p))
    order;
  !sleep
