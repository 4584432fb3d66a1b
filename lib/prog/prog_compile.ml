(* Compile programs once into flat int-coded arrays.

   The compiled form preresolves every name to a dense index: locations
   into a sorted table (memory becomes one int array), registers into a
   flat register file (per-thread blocks, so a processor's registers are
   a contiguous slice), control flow into jump offsets.  The compiled
   interpreter (Cinterp) then touches nothing but int arrays on its hot
   path.

   Beyond the code itself, compilation precomputes the two static
   analyses the stateful DAG search needs per visited state:

   - symmetry classes: threads whose compiled code is identical up to a
     private location renaming (and that name the same source registers)
     can be permuted by the DRF0 canonical key;
   - live locations per program point: the locations reachable from
     each pc in the thread's control-flow graph, in a deterministic
     first-occurrence order — the renaming stream for canonical keys,
     and the justification for dropping dead locations from them. *)

let op_stride = 4

let o_read = 0
let o_write = 1
let o_sync_read = 2
let o_sync_write = 3
let o_tas = 4
let o_faa = 5
let o_assign = 6
let o_jmp = 7
let o_jif = 8
let o_nop = 9
let o_fence = 10

let e_const = 0
let e_reg = 1
let e_postfix = 2

let p_const = 0
let p_reg = 1
let p_add = 2
let p_sub = 3
let p_mul = 4
let p_eq = 5
let p_ne = 6
let p_lt = 7
let p_le = 8

type t = {
  source : Program.t;
  nprocs : int;
  locs : int array;
  init_mem : int array;
  code : int array array;
  reg_ids : int array array;
  reg_base : int array;
  nregs : int;
  e_kind : int array;
  e_arg : int array;
  e_len : int array;
  epool : int array;
  max_stack : int;
  obs_regs : (int * int * int) array;
  classes : int array;
  live_cache : int array array array;
}

(* Packing bound: location and register indices fit in 16 bits.  Code
   length is unbounded — pcs are varints in the packed keys, and a key's
   length does not grow with the code. *)
let max_index = 0xffff

(* --- growable int vector ---------------------------------------------------- *)

type vec = { mutable a : int array; mutable n : int }

let vec_create () = { a = Array.make 64 0; n = 0 }

let vec_push v x =
  if v.n = Array.length v.a then begin
    let a' = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a' 0 v.n;
    v.a <- a'
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let vec_contents v = Array.sub v.a 0 v.n

(* --- expression compilation ------------------------------------------------- *)

type ectx = {
  kinds : vec;
  args : vec;
  lens : vec;
  pool : vec;
  stack_hi : int ref;  (* shared across the per-thread ectx copies *)
  reg_index : int -> int;  (* source register id -> flat register *)
}

let rec postfix_expr ctx depth (e : Instr.expr) =
  (* returns the stack depth reached while evaluating [e] starting from
     [depth] items already on the stack *)
  match e with
  | Instr.Const n ->
    vec_push ctx.pool p_const;
    vec_push ctx.pool n;
    depth + 1
  | Instr.Reg r ->
    vec_push ctx.pool p_reg;
    vec_push ctx.pool (ctx.reg_index r);
    depth + 1
  | Instr.Add (a, b) -> postfix_bin ctx depth p_add a b
  | Instr.Sub (a, b) -> postfix_bin ctx depth p_sub a b
  | Instr.Mul (a, b) -> postfix_bin ctx depth p_mul a b

and postfix_bin ctx depth tag a b =
  let da = postfix_expr ctx depth a in
  let db = postfix_expr ctx da b in
  ctx.stack_hi := max !(ctx.stack_hi) (max da db);
  vec_push ctx.pool tag;
  vec_push ctx.pool 0;
  max da db - 1

let add_expr ctx (e : Instr.expr) =
  let id = ctx.kinds.n in
  (match e with
  | Instr.Const n ->
    vec_push ctx.kinds e_const;
    vec_push ctx.args n;
    vec_push ctx.lens 0
  | Instr.Reg r ->
    vec_push ctx.kinds e_reg;
    vec_push ctx.args (ctx.reg_index r);
    vec_push ctx.lens 0
  | Instr.Add _ | Instr.Sub _ | Instr.Mul _ ->
    let off = ctx.pool.n in
    let _depth = postfix_expr ctx 0 e in
    vec_push ctx.kinds e_postfix;
    vec_push ctx.args off;
    vec_push ctx.lens ((ctx.pool.n - off) / 2));
  id

let add_cond ctx (c : Instr.cond) =
  let tag, a, b =
    match c with
    | Instr.Eq (a, b) -> (p_eq, a, b)
    | Instr.Ne (a, b) -> (p_ne, a, b)
    | Instr.Lt (a, b) -> (p_lt, a, b)
    | Instr.Le (a, b) -> (p_le, a, b)
  in
  let id = ctx.kinds.n in
  let off = ctx.pool.n in
  let da = postfix_expr ctx 0 a in
  let db = postfix_expr ctx da b in
  ctx.stack_hi := max !(ctx.stack_hi) (max da db);
  vec_push ctx.pool tag;
  vec_push ctx.pool 0;
  vec_push ctx.kinds e_postfix;
  vec_push ctx.args off;
  vec_push ctx.lens ((ctx.pool.n - off) / 2);
  id

(* --- code generation -------------------------------------------------------- *)

(* Emit a block; jump targets are backpatched once the block length is
   known.  Every AST instruction becomes at least one op, so local step
   budgets stay comparable with Interp's (Nop and Fence are real ops). *)
let rec emit_block ctx code loc_index instrs =
  List.iter (emit_instr ctx code loc_index) instrs

and emit_instr ctx code loc_index (i : Instr.t) =
  let op o a b c =
    vec_push code o;
    vec_push code a;
    vec_push code b;
    vec_push code c
  in
  match i with
  | Instr.Read (r, l) -> op o_read (ctx.reg_index r) (loc_index l) 0
  | Instr.Write (l, e) -> op o_write (loc_index l) (add_expr ctx e) 0
  | Instr.Sync_read (r, l) -> op o_sync_read (ctx.reg_index r) (loc_index l) 0
  | Instr.Sync_write (l, e) -> op o_sync_write (loc_index l) (add_expr ctx e) 0
  | Instr.Test_and_set (r, l) -> op o_tas (ctx.reg_index r) (loc_index l) 0
  | Instr.Fetch_and_add (r, l, e) ->
    op o_faa (ctx.reg_index r) (loc_index l) (add_expr ctx e)
  | Instr.Assign (r, e) -> op o_assign (ctx.reg_index r) (add_expr ctx e) 0
  | Instr.Nop -> op o_nop 0 0 0
  | Instr.Fence -> op o_fence 0 0 0
  | Instr.If (c, a, b) ->
    let cond = add_cond ctx c in
    let jif_at = code.n in
    op o_jif cond 0 0;
    emit_block ctx code loc_index a;
    if b = [] then code.a.(jif_at + 2) <- code.n
    else begin
      let jmp_at = code.n in
      op o_jmp 0 0 0;
      code.a.(jif_at + 2) <- code.n;
      emit_block ctx code loc_index b;
      code.a.(jmp_at + 1) <- code.n
    end
  | Instr.While (c, body) ->
    let cond = add_cond ctx c in
    let top = code.n in
    let jif_at = code.n in
    op o_jif cond 0 0;
    emit_block ctx code loc_index body;
    op o_jmp top 0 0;
    code.a.(jif_at + 2) <- code.n

(* --- static analyses -------------------------------------------------------- *)

let op_loc_operand o =
  (* operand slot holding a location index, or -1 *)
  if o = o_write || o = o_sync_write then 1
  else if o = o_read || o = o_sync_read || o = o_tas || o = o_faa then 2
  else -1

(* Ops reachable from [pc], as a bool array over op indices. *)
let reachable code pc =
  let nops = Array.length code / op_stride in
  let seen = Array.make nops false in
  let rec go pc =
    if pc < Array.length code then begin
      let i = pc / op_stride in
      if not seen.(i) then begin
        seen.(i) <- true;
        let o = code.(pc) in
        if o = o_jmp then go code.(pc + 1)
        else if o = o_jif then begin
          go (pc + op_stride);
          go code.(pc + 2)
        end
        else go (pc + op_stride)
      end
    end
  in
  go pc;
  seen

(* Live locations from one program point, in deterministic
   first-occurrence order: scan the reachable ops in ascending address
   order.  Renaming-stable: two threads with identical renamed code have
   position-wise corresponding streams.  O(code length), so computed only
   for the program points a search reaches ({!live_locs}). *)
let live_from code nlocs pc =
  let nops = Array.length code / op_stride in
  let seen_op = reachable code pc in
  let seen_loc = Array.make nlocs false in
  let out = vec_create () in
  for j = 0 to nops - 1 do
    if seen_op.(j) then begin
      let pc = j * op_stride in
      let slot = op_loc_operand code.(pc) in
      if slot >= 0 then begin
        let l = code.(pc + slot) in
        if not seen_loc.(l) then begin
          seen_loc.(l) <- true;
          vec_push out l
        end
      end
    end
  done;
  vec_contents out

(* Cache marker: a live stream holds location indices, never -1. *)
let unknown = [| -1 |]

let live_locs t p pc =
  let cache = t.live_cache.(p) in
  let ll = cache.(pc / op_stride) in
  if ll != unknown then ll
  else begin
    let ll = live_from t.code.(p) (Array.length t.locs) pc in
    (* Domains racing here store equal arrays. *)
    cache.(pc / op_stride) <- ll;
    ll
  end

(* Renaming-invariant encoding of one thread's compiled code, used to
   group threads into symmetry classes: locations are renamed by first
   occurrence (private to the thread), registers by their local index,
   expressions inlined structurally.  Two threads with equal encodings
   (and equal source register ids, which the caller also compares) are
   behaviourally identical up to a bijective location renaming. *)
let class_encoding t p =
  let buf = Buffer.create 128 in
  let add_i n =
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf ','
  in
  let rename = Array.make (Array.length t.locs) (-1) in
  let next = ref 0 in
  let renamed l =
    if rename.(l) < 0 then begin
      rename.(l) <- !next;
      incr next
    end;
    rename.(l)
  in
  let local_reg fr = fr - t.reg_base.(p) in
  let add_expr e =
    Buffer.add_char buf 'e';
    add_i t.e_kind.(e);
    (match t.e_kind.(e) with
    | k when k = e_const -> add_i t.e_arg.(e)
    | k when k = e_reg -> add_i (local_reg t.e_arg.(e))
    | _ ->
      for i = 0 to t.e_len.(e) - 1 do
        let tag = t.epool.(t.e_arg.(e) + (2 * i)) in
        let arg = t.epool.(t.e_arg.(e) + (2 * i) + 1) in
        add_i tag;
        add_i (if tag = p_reg then local_reg arg else if tag = p_const then arg else 0)
      done);
    Buffer.add_char buf ';'
  in
  let code = t.code.(p) in
  let pc = ref 0 in
  while !pc < Array.length code do
    let o = code.(!pc) in
    add_i o;
    (if o = o_read || o = o_sync_read || o = o_tas then begin
       add_i (local_reg code.(!pc + 1));
       add_i (renamed code.(!pc + 2))
     end
     else if o = o_write || o = o_sync_write then begin
       add_i (renamed code.(!pc + 1));
       add_expr code.(!pc + 2)
     end
     else if o = o_faa then begin
       add_i (local_reg code.(!pc + 1));
       add_i (renamed code.(!pc + 2));
       add_expr code.(!pc + 3)
     end
     else if o = o_assign then begin
       add_i (local_reg code.(!pc + 1));
       add_expr code.(!pc + 2)
     end
     else if o = o_jmp then add_i code.(!pc + 1)
     else if o = o_jif then begin
       add_expr code.(!pc + 1);
       add_i code.(!pc + 2)
     end);
    pc := !pc + op_stride
  done;
  Buffer.contents buf

(* --- compilation ------------------------------------------------------------ *)

let compile_exn (p : Program.t) =
  let nprocs = Program.num_procs p in
  let locs = Array.of_list (Program.locs p) in
  let loc_tbl = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace loc_tbl l i) locs;
  let loc_index l = Hashtbl.find loc_tbl l in
  let init_mem = Array.map (fun l -> Program.initial_value p l) locs in
  let reg_ids =
    Array.map (fun code -> Array.of_list (Instr.regs code)) p.Program.threads
  in
  let reg_base = Array.make nprocs 0 in
  let nregs =
    let acc = ref 0 in
    Array.iteri
      (fun i ids ->
        reg_base.(i) <- !acc;
        acc := !acc + Array.length ids)
      reg_ids;
    !acc
  in
  let reg_tbl = Hashtbl.create 16 in
  Array.iteri
    (fun pi ids ->
      Array.iteri (fun i r -> Hashtbl.replace reg_tbl (pi, r) (reg_base.(pi) + i)) ids)
    reg_ids;
  let ctx =
    {
      kinds = vec_create ();
      args = vec_create ();
      lens = vec_create ();
      pool = vec_create ();
      stack_hi = ref 1;
      reg_index = (fun _ -> assert false);
    }
  in
  let code =
    Array.mapi
      (fun pi instrs ->
        let ctx = { ctx with reg_index = (fun r -> Hashtbl.find reg_tbl (pi, r)) } in
        let v = vec_create () in
        emit_block ctx v loc_index instrs;
        vec_contents v)
      p.Program.threads
  in
  let observable pi r =
    match p.Program.observable with
    | None -> true
    | Some l -> List.mem (pi, r) l
  in
  let obs_regs =
    Array.to_list reg_ids
    |> List.mapi (fun pi ids ->
           Array.to_list ids
           |> List.filter (observable pi)
           |> List.map (fun r -> (pi, r, Hashtbl.find reg_tbl (pi, r))))
    |> List.concat |> Array.of_list
  in
  let t =
    {
      source = p;
      nprocs;
      locs;
      init_mem;
      code;
      reg_ids;
      reg_base;
      nregs;
      e_kind = vec_contents ctx.kinds;
      e_arg = vec_contents ctx.args;
      e_len = vec_contents ctx.lens;
      epool = vec_contents ctx.pool;
      max_stack = !(ctx.stack_hi);
      obs_regs;
      classes = [||];
      live_cache =
        Array.map
          (fun c -> Array.make ((Array.length c / op_stride) + 1) unknown)
          code;
    }
  in
  let class_keys =
    Array.init nprocs (fun pi -> (class_encoding t pi, reg_ids.(pi)))
  in
  let classes =
    Array.map
      (fun key ->
        (* class id = lowest processor with this key *)
        let rec find i = if class_keys.(i) = key then i else find (i + 1) in
        find 0)
      class_keys
  in
  { t with classes }

let exceeded_bound (p : Program.t) =
  let nprocs = Program.num_procs p in
  if nprocs > Program.max_procs then
    Some
      (Printf.sprintf
         "%d processors exceed the compile bound of %d (Program.max_procs)"
         nprocs Program.max_procs)
  else
    let nlocs = List.length (Program.locs p) in
    if nlocs > max_index then
      Some
        (Printf.sprintf "%d locations exceed the compile bound of %d" nlocs
           max_index)
    else
      let nregs =
        Array.fold_left
          (fun m code -> max m (List.length (Instr.regs code)))
          0 p.Program.threads
      in
      if nregs > max_index then
        Some
          (Printf.sprintf
             "%d registers in one thread exceed the compile bound of %d" nregs
             max_index)
      else None

let compilable p = exceeded_bound p = None

let compile p = if compilable p then Some (compile_exn p) else None

(* --- canonical encoding ----------------------------------------------------- *)

(* Varint (LEB128, zigzagged) writer shared with the packed state keys;
   self-delimiting, so a fixed field sequence is injective.  A loop, not
   a local recursive function, so a call allocates nothing. *)
let emit_varint buf n =
  let z = ref (if n >= 0 then n lsl 1 else lnot (n lsl 1)) in
  while !z >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!z land 0x7f)));
    z := !z lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !z)

let emit_array buf a =
  emit_varint buf (Array.length a);
  Array.iter (emit_varint buf) a

let encoding_version = 1

let encoding t =
  let buf = Buffer.create 256 in
  Buffer.add_char buf (Char.chr encoding_version);
  emit_varint buf t.nprocs;
  emit_array buf t.locs;
  emit_array buf t.init_mem;
  Array.iter (fun ids -> emit_array buf ids) t.reg_ids;
  Array.iter (fun c -> emit_array buf c) t.code;
  emit_array buf t.e_kind;
  emit_array buf t.e_arg;
  emit_array buf t.e_len;
  emit_array buf t.epool;
  (match t.source.Program.observable with
  | None -> emit_varint buf 0
  | Some l ->
    emit_varint buf 1;
    let l = List.sort_uniq compare l in
    emit_varint buf (List.length l);
    List.iter
      (fun (p, r) ->
        emit_varint buf p;
        emit_varint buf r)
      l);
  Buffer.contents buf

let encode_program p = Option.map encoding (compile p)
