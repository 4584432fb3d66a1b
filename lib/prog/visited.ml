(* Off-heap visited table for the stateful (DAG) enumerator.

   Maps state keys to the sleep set the state was (or is being) explored
   with.  At the billion-state scale the previous sharded-Hashtbl table
   collapses under GC pressure: every key is a heap string, every bucket
   a heap cell, and each major cycle walks them all.  This table keeps
   the hot data outside the OCaml heap:

   - slots live in an int Bigarray (malloc'ed, never scanned by the GC):
     three ints per slot — key fingerprint, claimed sleep bitset, and a
     packed reference into the arena;
   - full keys live in bump-allocated Bytes chunks (the arena).  Bytes
     bodies are heap-allocated but pointer-free, so the GC never scans
     their contents, and there are only O(arena_bytes / chunk) of them
     rather than one per state;
   - one open-addressing (linear probing) region per stripe, each with
     its own mutex, so concurrent workers contend only on stripe
     collisions — the same contention profile as the old shards.

   A fingerprint match alone never merges states: the full key is
   verified against the arena byte-for-byte, so a 63-bit hash collision
   costs a comparison, never a wrong merge.

   The stripe, the slot, and the fingerprint are all derived from ONE
   64-bit FNV-1a hash per claim (stripe from the high bits, home slot
   from the low bits), where the old table hashed every key twice
   (Hashtbl.hash for the shard, then the Hashtbl's own hash).

   Sleep-set discipline (Godefroid's state-caching refinement) is
   unchanged: an entry [key -> s0] promises that the subtree below the
   state restricted by sleep set [s0] is being covered.  A revisit with
   sleep [s] either skips ([s0] subset of [s]) or widens the entry to
   [s0 land s] and re-explores.  Claims are recorded pre-order; the
   enumeration DAG is acyclic (event counts strictly increase), so
   skipping a state another worker merely claimed is sound — the
   claimant finishes its coverage unless the whole search stops, and it
   only stops once the answer is decided. *)

type slots =
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type stripe = {
  lock : Mutex.t;
  mutable slots : slots;  (* 3 ints per slot: fp, sleep, meta; fp = 0 empty *)
  mutable cap : int;  (* slot count, power of two *)
  mutable count : int;
  mutable chunks : Bytes.t array;
  mutable nchunks : int;
  mutable cur_off : int;  (* bump pointer in chunks.(nchunks - 1) *)
  mutable arena : int;  (* total arena bytes allocated *)
  probe_hist : int array;  (* claims by floor(log2(probe length + 1)) *)
}

type t = { stripes : stripe array; mask : int; hits : int Atomic.t }

(* --- hashing ---------------------------------------------------------------- *)

(* FNV-1a over bytes on native ints.  The canonical 64-bit offset basis
   does not fit OCaml's 63-bit literals; a truncated variant loses
   nothing we rely on — full keys are always verified, the hash only
   spreads slots. *)
let fnv_offset = 0x2bf29ce484222325
let fnv_prime = 0x100000001b3

let hash64 s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h land max_int

(* --- layout constants ------------------------------------------------------- *)

(* meta packs (chunk index, byte offset, key length); keys never
   straddle chunks, so one meta locates the whole key. *)
let len_bits = 20
let off_bits = 22
let max_key_len = (1 lsl len_bits) - 1
let max_chunk = 1 lsl off_bits (* 4 MiB *)
let first_chunk = 256

let meta ~chunk ~off ~len =
  (chunk lsl (len_bits + off_bits)) lor (off lsl len_bits) lor len

let meta_chunk m = m lsr (len_bits + off_bits)
let meta_off m = (m lsr len_bits) land ((1 lsl off_bits) - 1)
let meta_len m = m land ((1 lsl len_bits) - 1)

let probe_buckets = 16

(* --- construction ----------------------------------------------------------- *)

let default_shards = 64

(* Small starting sizes (16 slots, a 256-byte first chunk): most tables
   back searches of a few hundred states, made by the hundred per
   difftest or campaign call, and both regions double as they fill. *)
let initial_cap = 16

let make_slots cap =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (3 * cap) in
  Bigarray.Array1.fill a 0;
  a

let create ?(shards = default_shards) () =
  let n =
    let rec up k = if k >= shards || k >= 4096 then k else up (k * 2) in
    up 1
  in
  {
    stripes =
      Array.init n (fun _ ->
          {
            lock = Mutex.create ();
            slots = make_slots initial_cap;
            cap = initial_cap;
            count = 0;
            chunks = [||];
            nchunks = 0;
            cur_off = 0;
            arena = 0;
            probe_hist = Array.make probe_buckets 0;
          });
    mask = n - 1;
    hits = Atomic.make 0;
  }

(* --- arena ------------------------------------------------------------------ *)

let arena_store s key =
  let len = String.length key in
  let room =
    s.nchunks > 0 && s.cur_off + len <= Bytes.length s.chunks.(s.nchunks - 1)
  in
  if not room then begin
    let next =
      if s.nchunks = 0 then first_chunk
      else min max_chunk (2 * Bytes.length s.chunks.(s.nchunks - 1))
    in
    let size = max next len in
    if s.nchunks = Array.length s.chunks then begin
      let chunks' = Array.make (max 8 (2 * s.nchunks)) Bytes.empty in
      Array.blit s.chunks 0 chunks' 0 s.nchunks;
      s.chunks <- chunks'
    end;
    (* A cleared table keeps its chunks; the doubling sequence repeats,
       so the chunk at this index is normally the right size. *)
    if Bytes.length s.chunks.(s.nchunks) <> size then
      s.chunks.(s.nchunks) <- Bytes.create size;
    s.nchunks <- s.nchunks + 1;
    s.cur_off <- 0;
    s.arena <- s.arena + size
  end;
  let chunk = s.nchunks - 1 in
  let off = s.cur_off in
  Bytes.blit_string key 0 s.chunks.(chunk) off len;
  s.cur_off <- off + len;
  meta ~chunk ~off ~len

let key_matches s m key =
  let len = String.length key in
  meta_len m = len
  &&
  let chunk = s.chunks.(meta_chunk m) in
  let off = meta_off m in
  let rec eq i =
    i >= len
    || (Bytes.unsafe_get chunk (off + i) = String.unsafe_get key i && eq (i + 1))
  in
  eq 0

(* --- slot region ------------------------------------------------------------ *)

(* Grow at 75% load.  Fingerprints are stored, so rehashing moves slots
   without touching the arena. *)
let grow s =
  let old = s.slots and old_cap = s.cap in
  let cap = 2 * old_cap in
  let slots = make_slots cap in
  let mask = cap - 1 in
  for i = 0 to old_cap - 1 do
    let fp = Bigarray.Array1.unsafe_get old (3 * i) in
    if fp <> 0 then begin
      let j = ref (fp land mask) in
      while Bigarray.Array1.unsafe_get slots (3 * !j) <> 0 do
        j := (!j + 1) land mask
      done;
      Bigarray.Array1.unsafe_set slots (3 * !j) fp;
      Bigarray.Array1.unsafe_set slots ((3 * !j) + 1)
        (Bigarray.Array1.unsafe_get old ((3 * i) + 1));
      Bigarray.Array1.unsafe_set slots ((3 * !j) + 2)
        (Bigarray.Array1.unsafe_get old ((3 * i) + 2))
    end
  done;
  s.slots <- slots;
  s.cap <- cap

let log2_bucket plen =
  let rec go n b = if n = 0 then b else go (n lsr 1) (b + 1) in
  min (probe_buckets - 1) (go plen 0)

(* --- claims ----------------------------------------------------------------- *)

let try_claim t key sleep =
  if String.length key > max_key_len then
    invalid_arg "Visited.try_claim: key exceeds the packed length bound";
  let h = hash64 key in
  let fp = if h = 0 then 1 else h in
  let s = t.stripes.((h lsr 48) land t.mask) in
  Mutex.lock s.lock;
  if 4 * (s.count + 1) > 3 * s.cap then grow s;
  let mask = s.cap - 1 in
  let slots = s.slots in
  let rec probe i plen =
    let base = 3 * i in
    let f = Bigarray.Array1.unsafe_get slots base in
    if f = 0 then begin
      (* first visit: claim with the caller's sleep set *)
      Bigarray.Array1.unsafe_set slots base fp;
      Bigarray.Array1.unsafe_set slots (base + 1) sleep;
      Bigarray.Array1.unsafe_set slots (base + 2) (arena_store s key);
      s.count <- s.count + 1;
      s.probe_hist.(log2_bucket plen) <- s.probe_hist.(log2_bucket plen) + 1;
      `Explore sleep
    end
    else if
      f = fp && key_matches s (Bigarray.Array1.unsafe_get slots (base + 2)) key
    then begin
      let s0 = Bigarray.Array1.unsafe_get slots (base + 1) in
      if s0 land lnot sleep = 0 then `Skip
      else begin
        let widened = s0 land sleep in
        Bigarray.Array1.unsafe_set slots (base + 1) widened;
        `Explore widened
      end
    end
    else probe ((i + 1) land mask) (plen + 1)
  in
  let verdict = probe (fp land mask) 0 in
  Mutex.unlock s.lock;
  if verdict = `Skip then Atomic.incr t.hits;
  verdict

(* --- counters --------------------------------------------------------------- *)

let hits t = Atomic.get t.hits

let size t = Array.fold_left (fun acc s -> acc + s.count) 0 t.stripes

let arena_bytes t = Array.fold_left (fun acc s -> acc + s.arena) 0 t.stripes

let probe_hist t =
  let out = Array.make probe_buckets 0 in
  Array.iter
    (fun s ->
      Array.iteri (fun i v -> out.(i) <- out.(i) + v) s.probe_hist)
    t.stripes;
  out

(* --- one spare table per domain --------------------------------------------- *)

(* A campaign or check call runs many small searches back to back.  A
   fresh table per search allocates a slot region and an arena each
   time, and at that rate the short-lived regions churn the major heap.
   So each domain keeps one cleared single-stripe table to lend.  A
   borrower that raises never gives its table back, and a nested search
   finds the spare already out, so both get fresh tables; a table grown
   past [keep_bytes] is dropped rather than held between searches. *)

let keep_bytes = 1 lsl 20

let spare : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let borrow () =
  let slot = Domain.DLS.get spare in
  match !slot with
  | Some t ->
    slot := None;
    t
  | None -> create ~shards:1 ()

let clear s =
  Bigarray.Array1.fill s.slots 0;
  s.count <- 0;
  s.nchunks <- 0;
  s.cur_off <- 0;
  s.arena <- 0;
  Array.fill s.probe_hist 0 probe_buckets 0

let give_back t =
  let slot = Domain.DLS.get spare in
  match t.stripes with
  | [| s |] when Option.is_none !slot ->
    let kept =
      Array.fold_left (fun acc c -> acc + Bytes.length c) (24 * s.cap) s.chunks
    in
    if kept <= keep_bytes then begin
      clear s;
      Atomic.set t.hits 0;
      slot := Some t
    end
  | _ -> ()
