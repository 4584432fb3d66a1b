(** One-shot compilation of programs to flat, int-coded form.

    An AST walk over instruction lists with boxed register environments
    is fine for a few thousand states, fatal for a few billion.  This
    module compiles a {!Program.t} {e once} into flat
    arrays of int-coded ops with every register, location and processor
    name preresolved to a dense index, so the compiled interpreter
    ({!Cinterp}) runs over plain [int array]s: no boxed environments, no
    list walking, no hashing of structural keys.

    Compilation is total on every program the repository generates, at
    any code length.  The [option] covers the one packing limit: more
    locations or flat registers than a 16-bit index, or more processors
    than the sleep-set bitset.  There is no AST fallback — {!Enumerate}
    raises [Limit_exceeded], {!Relaxed} [Too_many_states] and the
    simulated machines [Machine_error] on such programs.

    The compiled form also provides {!encoding}: a canonical, versioned
    byte string of the whole program (code, index tables, initial
    memory, observability), stable across runs and OCaml versions —
    unlike [Marshal], whose format is a compiler implementation detail.
    {!Sweep}'s cross-cell SC-memoization keys on it. *)

(** {2 Opcode layout}

    Each op occupies {!op_stride} consecutive ints in a thread's code
    array: [[|opcode; a; b; c|]].  Program counters are raw offsets into
    that array (always multiples of {!op_stride}); jump targets are
    encoded the same way.  The code array's length marks termination. *)

val op_stride : int

val o_read : int  (** [a]=flat register, [b]=location index *)

val o_write : int  (** [a]=location index, [b]=expression id *)

val o_sync_read : int  (** [a]=flat register, [b]=location index *)

val o_sync_write : int  (** [a]=location index, [b]=expression id *)

val o_tas : int  (** [a]=flat register, [b]=location index *)

val o_faa : int  (** [a]=flat register, [b]=location index, [c]=expression id *)

val o_assign : int  (** [a]=flat register, [b]=expression id *)

val o_jmp : int  (** [a]=target offset *)

val o_jif : int  (** [a]=condition expression id, [b]=target iff false *)

val o_nop : int

val o_fence : int

(** {2 Expression table}

    Expressions are compiled to postfix code evaluated over a tiny
    stack; the two overwhelmingly common shapes (constant, single
    register) are special-cased so their evaluation allocates nothing.
    Conditions evaluate to 0/1. *)

val e_const : int
val e_reg : int

(** Postfix item tags, two pool ints per item: [tag; arg]. *)

val p_const : int
val p_reg : int
val p_add : int
val p_sub : int
val p_mul : int
val p_eq : int
val p_ne : int
val p_lt : int

type t = private {
  source : Program.t;
  nprocs : int;
  locs : int array;  (** location index -> source location id, sorted *)
  init_mem : int array;  (** initial memory value per location index *)
  code : int array array;  (** per processor, stride-{!op_stride} ops *)
  reg_ids : int array array;
      (** per processor: local register index -> source register id, sorted *)
  reg_base : int array;
      (** per processor: offset of its block in the flat register file *)
  nregs : int;  (** flat register file length *)
  e_kind : int array;
      (** per expression id: {!e_const}, {!e_reg}, or postfix code *)
  e_arg : int array;  (** constant value / flat register / pool offset *)
  e_len : int array;  (** postfix items (0 for the scalar kinds) *)
  epool : int array;
  max_stack : int;  (** deepest postfix evaluation stack, >= 1 *)
  obs_regs : (int * int * int) array;
      (** (processor, source register id, flat register index) for every
          observable register, in {!Cinterp.outcome}'s order *)
  classes : int array;
      (** per processor: symmetry class — equal iff the threads' compiled
          code is identical up to a private location renaming (and uses
          the same source register ids), i.e. the static half of the
          thread-signature test processor-symmetry reduction needs *)
  live_cache : int array array array;
      (** per processor and op index: the memo behind {!live_locs}; read
          it through that function *)
}

val live_locs : t -> int -> int -> int array
(** [live_locs t p pc]: the location indices reachable from [pc] in
    [p]'s control-flow graph, in deterministic first-occurrence order —
    the renaming stream for canonical DRF0 keys; empty at [pc = code
    length].  Computed on first use, in time linear in the code, and
    cached in [t], so a long thread costs only for the program points a
    search reaches.  Safe to call from several domains (racing callers
    store equal arrays). *)

val compile : Program.t -> t option
(** Compile, or [None] when the program exceeds a packing bound
    ({!compilable} explains which).  Compilation never changes
    semantics: {!Cinterp} on the result is step-for-step equivalent to
    the AST interpreter on the source (the test-only
    [Wo_oracle.Interp]). *)

val compilable : Program.t -> bool
(** Would {!compile} succeed?  False when the program has more than
    [0xffff] locations or flat registers, or more processors than
    sleep-set bitset bits ({!Program.max_procs}). *)

val exceeded_bound : Program.t -> string option
(** The packing bound an uncompilable program exceeds, as a message
    naming the bound and the program's count; [None] iff {!compilable}. *)

val encoding : t -> string
(** Canonical byte encoding of the compiled program: index tables, code
    (with expressions inlined structurally), initial memory and the
    observability spec.  Equal for two programs iff they compile to the
    same int-coded form with the same naming — a content key that is
    stable across runs and toolchains, with no [Marshal] versioning
    hazard.  Starts with a one-byte format version. *)

val encode_program : Program.t -> string option
(** [encoding] of [compile], when it succeeds. *)

val emit_varint : Buffer.t -> int -> unit
(** Append one zigzagged LEB128 varint — the self-delimiting field
    writer behind {!encoding} and the packed state keys: a fixed
    sequence of fields written with it is injective. *)
