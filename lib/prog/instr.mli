(** A small structured parallel instruction set.

    Programs are per-processor instruction lists over shared memory
    locations and private registers.  Memory is accessed by data reads and
    writes and by the three flavours of synchronization operation the paper
    distinguishes in Section 6: read-only ([Sync_read], a [Test]),
    write-only ([Sync_write], an [Unset]), and read-write ([Test_and_set] /
    [Fetch_and_add], atomic read-modify-writes).  Each synchronization
    operation accesses exactly one location, as DRF0 requires.

    Control flow ([If], [While]) is over registers only, so every memory
    interaction is an explicit instruction — the idealized interpreter and
    the hardware simulators share this property. *)

type reg = int

type expr =
  | Const of int
  | Reg of reg
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr

type cond =
  | Eq of expr * expr
  | Ne of expr * expr
  | Lt of expr * expr
  | Le of expr * expr

type t =
  | Read of reg * Wo_core.Event.loc        (** data read: reg := [loc] *)
  | Write of Wo_core.Event.loc * expr      (** data write: [loc] := expr *)
  | Sync_read of reg * Wo_core.Event.loc   (** Test *)
  | Sync_write of Wo_core.Event.loc * expr (** Unset / synchronizing store *)
  | Test_and_set of reg * Wo_core.Event.loc
      (** reg := [loc]; [loc] := 1, atomically *)
  | Fetch_and_add of reg * Wo_core.Event.loc * expr
      (** reg := [loc]; [loc] := old + expr, atomically *)
  | Assign of reg * expr                   (** local register computation *)
  | If of cond * t list * t list
  | While of cond * t list
  | Nop                                    (** local work: consumes time *)
  | Fence
      (** order-enforcing barrier: the processor does not proceed until all
          its previous accesses are globally performed.  Not needed by DRF0
          programs (synchronization operations carry the ordering); used by
          the Shasha-Snir delay-set enforcement ({!Delay_set}) to make racy
          programs sequentially consistent. *)

val eval_expr : (reg -> int) -> expr -> int

val eval_cond : (reg -> int) -> cond -> bool

val memory_locs : t list -> Wo_core.Event.loc list
(** Locations statically mentioned, sorted and deduplicated. *)

val regs : t list -> reg list
(** Registers statically mentioned, sorted and deduplicated. *)

val pp : Format.formatter -> t -> unit

val pp_block : Format.formatter -> t list -> unit
