let magic = "WOCAMPS1"

let header_len = 8

let rec_header_len = 12

(* Sanity bound on a single record: a cell verdict with a witness trace
   is a few hundred KB at the very worst; anything larger in a length
   field means we are reading garbage. *)
let max_part = 1 lsl 26

type entry = { e_off : int; e_klen : int; e_vlen : int }
(* [e_off] is the offset of the key bytes (past the record header). *)

(* The index key of a store key: two seeded C-level hashes of the whole
   string, 30 bits each, packed into 60 bits.  It only routes a lookup
   to its candidate entries — every hit is confirmed against the full
   key bytes — so a collision costs one comparison, never a wrong
   value. *)
let key_hash key =
  Hashtbl.seeded_hash 0 key lxor (Hashtbl.seeded_hash 1 key lsl 30)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash h = h land max_int
end)

type t = {
  fd : Unix.file_descr;
  index : entry list Itbl.t;  (* key hash -> entries, log order *)
  opened : int;  (* [tail] at open: later records are this handle's *)
  mutable tail : int;  (* append offset = end of last complete record *)
  mutable count : int;
  mutable live : int;  (* records that were first for their key hash *)
  mutable dropped : int;
  mutable unsynced : bool;  (* bytes may sit in the page cache unsynced *)
  mutable scratch : Bytes.t;  (* [find]/[iter] read buffer, grown on demand *)
}

(* FNV-1a (32-bit) over [b.[off, off+len)].  The product is left
   unmasked inside the loop — the low 32 bits of a product (and of an
   xor with a byte) depend only on the low 32 bits of its operands, so
   one mask at the end gives the same checksum — and the state is an
   unboxed [int64], which keeps the tag fix-ups of [int] arithmetic off
   the loop's xor-multiply dependency chain. *)
let fnv32 b off len =
  let h = ref 0x811c9dc5L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x01000193L
  done;
  Int64.to_int !h land 0xffffffff

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

let really_read fd buf off len =
  let got = ref 0 in
  (try
     while !got < len do
       let n = Unix.read fd buf (off + !got) (len - !got) in
       if n = 0 then raise Exit;
       got := !got + n
     done
   with Exit -> ());
  !got

(* Positioned read of [len] bytes into [buf.[0, len)] through the fd's
   shared offset — the store's one handle is its offset's one user. *)
let pread_into fd buf ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  really_read fd buf 0 len = len

let pread_at fd ~off ~len =
  let buf = Bytes.create len in
  if pread_into fd buf ~off ~len then Some (Bytes.unsafe_to_string buf)
  else None

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let encode_record ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let b = Bytes.create (rec_header_len + klen + vlen) in
  set_u32 b 0 klen;
  set_u32 b 4 vlen;
  Bytes.blit_string key 0 b rec_header_len klen;
  Bytes.blit_string value 0 b (rec_header_len + klen) vlen;
  set_u32 b 8 (fnv32 b rec_header_len (klen + vlen));
  Bytes.unsafe_to_string b

(* Walk the complete records in [header_len, size), calling [emit] with
   each record's key hash and entry; returns the offset just past the
   last complete record — the torn tail, if any, begins there.  The scan
   is strictly forward, so it streams through one reused buffer sized to
   the log (capped at 1 MiB) — a large store opens with a handful of big
   sequential reads, a small one allocates a few records' worth — and
   checksums each record in place; only the key is copied out, to hash
   it. *)
let scan_fd fd ~size ~emit =
  let start = header_len in
  let cap = min (1 lsl 20) (max 0 (size - start)) in
  let buf = Bytes.create cap in
  let tail = ref start in
  let w_off = ref start in  (* file offset of buf.[0] *)
  let w_len = ref 0 in
  ignore (Unix.lseek fd start Unix.SEEK_SET);
  (* Make bytes [!tail, !tail+len) available in [buf]; strictly
     forward, so everything before !tail can be discarded. *)
  let ensure len =
    if len > cap then false
    else begin
      let keep = !w_off + !w_len - !tail in
      if keep > 0 && !tail > !w_off then
        Bytes.blit buf (!tail - !w_off) buf 0 keep;
      if !tail >= !w_off then begin
        w_off := !tail;
        w_len := max 0 keep
      end;
      let short = ref false in
      while (not !short) && !w_len < len do
        let n = Unix.read fd buf !w_len (cap - !w_len) in
        if n = 0 then short := true else w_len := !w_len + n
      done;
      !w_len >= len
    end
  in
  let ok = ref true in
  while !ok && !tail + rec_header_len <= size do
    if not (ensure rec_header_len) then ok := false
    else begin
      let at = !tail - !w_off in
      let klen = get_u32 buf at and vlen = get_u32 buf (at + 4) in
      let sum = get_u32 buf (at + 8) in
      let rec_len = rec_header_len + klen + vlen in
      if
        klen <= 0 || klen > max_part || vlen < 0 || vlen > max_part
        || !tail + rec_len > size
      then ok := false
      else begin
        (* the payload [key ‖ value] as (bytes, offset) *)
        let payload =
          if ensure rec_len then Some (buf, !tail - !w_off + rec_header_len)
          else
            (* one record larger than the streaming buffer: positioned
               read, then re-seat the stream after it *)
            let p = Bytes.create (klen + vlen) in
            if pread_into fd p ~off:(!tail + rec_header_len) ~len:(klen + vlen)
            then begin
              w_off := !tail + rec_len;
              w_len := 0;
              ignore (Unix.lseek fd !w_off Unix.SEEK_SET);
              Some (p, 0)
            end
            else None
        in
        match payload with
        | None -> ok := false
        | Some (b, off) ->
          if fnv32 b off (klen + vlen) <> sum then ok := false
          else begin
            emit
              (key_hash (Bytes.sub_string b off klen))
              { e_off = !tail + rec_header_len; e_klen = klen; e_vlen = vlen };
            tail := !tail + rec_len
          end
      end
    end
  done;
  !tail

let index_add t h entry =
  (match Itbl.find_opt t.index h with
  | None ->
    t.live <- t.live + 1;
    Itbl.replace t.index h [ entry ]
  | Some prev -> Itbl.replace t.index h (prev @ [ entry ]));
  t.count <- t.count + 1

(* Every way a path fails to open as a store surfaces as the one
   exception the interface documents, in the stdlib's "file: reason"
   shape. *)
let fail_file file reason = raise (Sys_error (file ^ ": " ^ reason))

let open_fd file flags perm =
  try Unix.openfile file flags perm
  with Unix.Unix_error (e, _, _) -> fail_file file (Unix.error_message e)

let check_magic fd file =
  match pread_at fd ~off:0 ~len:header_len with
  | Some m when m = magic -> ()
  | _ ->
    Unix.close fd;
    fail_file file "not a WOCAMPS1 campaign store"

let make fd ~records ~tail =
  {
    fd; index = Itbl.create (max 16 records); opened = tail; tail; count = 0;
    live = 0; dropped = 0; unsynced = true; scratch = Bytes.create 4096;
  }

let openf file =
  let fd = open_fd file [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  if size = 0 then begin
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    let n = Unix.write_substring fd magic 0 header_len in
    if n <> header_len then begin
      Unix.close fd;
      fail_file file "short header write"
    end;
    make fd ~records:0 ~tail:header_len
  end
  else begin
    check_magic fd file;
    (* Collect (hash, entry) pairs first, then build the index sized
       for the final record count: the buckets are allocated once,
       never rehashed mid-scan, and lookups on a freshly opened store
       meet a table at its final geometry — this is what pulled the
       lookup p99 tail (8.3 µs on E15) back towards the p50. *)
    let recs = ref [] and n = ref 0 in
    let tail =
      scan_fd fd ~size ~emit:(fun h e ->
          recs := (h, e) :: !recs;
          incr n)
    in
    let t = make fd ~records:!n ~tail in
    List.iter (fun (h, e) -> index_add t h e) (List.rev !recs);
    if t.tail < size then begin
      t.dropped <- size - t.tail;
      Unix.ftruncate fd t.tail
    end;
    ignore (Unix.lseek fd t.tail Unix.SEEK_SET);
    t
  end

let close t = Unix.close t.fd

let length t = t.count

let live t = t.live

let dead_estimate t = t.count - t.live

let tail_dropped t = t.dropped

(* Read entry [e]'s key and value, contiguous on disk, into
   [t.scratch.[0, klen+vlen)] with one positioned read. *)
let read_entry t e =
  let len = e.e_klen + e.e_vlen in
  if Bytes.length t.scratch < len then
    t.scratch <- Bytes.create (max len (2 * Bytes.length t.scratch));
  pread_into t.fd t.scratch ~off:e.e_off ~len

(* [t.scratch] starts with exactly [key] (whose length the caller has
   matched), compared eight bytes at a time. *)
let scratch_key_is t key =
  let b = t.scratch and len = String.length key in
  let i = ref 0 in
  while !i + 8 <= len && Bytes.get_int64_ne b !i = String.get_int64_ne key !i do
    i := !i + 8
  done;
  while !i < len && Bytes.get b !i = String.get key !i do
    incr i
  done;
  !i = len

(* The first entry whose key is exactly [key], left read into
   [t.scratch]. *)
let find_entry t ~key =
  match Itbl.find_opt t.index (key_hash key) with
  | None -> None
  | Some entries ->
    List.find_opt
      (fun e ->
        e.e_klen = String.length key && read_entry t e && scratch_key_is t key)
      entries

let find t ~key =
  match find_entry t ~key with
  | None -> None
  | Some e -> Some (Bytes.sub_string t.scratch e.e_klen e.e_vlen)

let mem t ~key = find_entry t ~key <> None

let appended t ~key =
  match find_entry t ~key with Some e -> e.e_off > t.opened | None -> false

let add t ~key ~value =
  let s = encode_record ~key ~value in
  ignore (Unix.lseek t.fd t.tail Unix.SEEK_SET);
  let n = Unix.write_substring t.fd s 0 (String.length s) in
  if n <> String.length s then failwith "campaign store: short record write";
  index_add t (key_hash key)
    {
      e_off = t.tail + rec_header_len;
      e_klen = String.length key;
      e_vlen = String.length value;
    };
  t.tail <- t.tail + String.length s;
  t.unsynced <- true

(* [unsynced] starts true, so the first sync after [openf] always
   reaches the disk: it covers the header of a fresh log, a truncated
   torn tail, and bytes a killed predecessor left in the page cache. *)
let sync t =
  if t.unsynced then begin
    Unix.fsync t.fd;
    t.unsynced <- false
  end

let iter t f =
  (* Log order: collect entries and sort by offset. *)
  let all = ref [] in
  Itbl.iter (fun _ es -> all := es @ !all) t.index;
  let sorted = List.sort (fun a b -> compare a.e_off b.e_off) !all in
  List.iter
    (fun e ->
      if read_entry t e then
        f
          ~key:(Bytes.sub_string t.scratch 0 e.e_klen)
          ~value:(Bytes.sub_string t.scratch e.e_klen e.e_vlen))
    sorted

(* --- compaction ------------------------------------------------------------- *)

type compact_stats = {
  cs_before_records : int;
  cs_after_records : int;
  cs_before_bytes : int;
  cs_after_bytes : int;
}

let fsync_dir file =
  match Unix.openfile (Filename.dirname file) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
    (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
    (try Unix.close dirfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let compact_log file =
  let t = openf file in
  let before_records = t.count and before_bytes = t.tail in
  let tmp = file ^ ".compact" in
  let kept, after_bytes =
    Fun.protect ~finally:(fun () -> close t) @@ fun () ->
    let out =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close out with Unix.Unix_error _ -> ())
    @@ fun () ->
    write_all out magic;
    (* First record per exact key survives ([find] returns the first:
       settled verdicts are immutable, so later duplicates are dead);
       the hash only routes — the full key bytes decide. *)
    let seen : string list Itbl.t = Itbl.create (max 16 t.live) in
    let kept = ref 0 and bytes = ref header_len in
    iter t (fun ~key ~value ->
        let h = key_hash key in
        let ks = Option.value ~default:[] (Itbl.find_opt seen h) in
        if not (List.exists (String.equal key) ks) then begin
          Itbl.replace seen h (key :: ks);
          let r = encode_record ~key ~value in
          write_all out r;
          incr kept;
          bytes := !bytes + String.length r
        end);
    Unix.fsync out;
    (!kept, !bytes)
  in
  (* The swap is a single rename of a fully-written, fsync'ed file: a
     crash at any point leaves either the old log or the new one, both
     complete and checksummed; the directory fsync makes the rename
     itself durable. *)
  Unix.rename tmp file;
  fsync_dir file;
  {
    cs_before_records = before_records;
    cs_after_records = kept;
    cs_before_bytes = before_bytes;
    cs_after_bytes = after_bytes;
  }

let compact file =
  try compact_log file
  with Unix.Unix_error (e, _, _) -> fail_file file (Unix.error_message e)
