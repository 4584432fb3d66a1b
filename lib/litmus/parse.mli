(** A text format for litmus tests (in the tradition of the litmus/herd
    tools, adapted to this instruction set).

    Example:

    {v
    name: store-buffering
    init: s=1                # optional; unlisted locations start at 0
    # one line per processor; statements separated by ';'
    P0: x := 1 ; r0 := y
    P1: y := 1 ; r0 := x
    forbid: P0:r0=0 & P1:r0=0    # optional outcome clauses
    exists: P0:r0=1
    v}

    Statements:
    - [rN := LOC]            data read into register N
    - [LOC := EXPR]          data write ([EXPR] is an integer, [rN], or
                             [rN + k])
    - [rN := test(LOC)]      read-only synchronization (Test)
    - [unset(LOC)]           write-only synchronization storing 0
    - [sync(LOC, EXPR)]      write-only synchronization storing [EXPR]
    - [rN := tas(LOC)]       TestAndSet
    - [rN := faa(LOC, k)]    FetchAndAdd
    - [fence]                wait for all previous accesses to perform
    - [nop] or [nop*K]       local work

    A thread holds at most 65,535 ops (each [nop*K] counts [K]).

    Locations are identifiers; [x y z a b c s t u] map to the conventional
    locations of {!Wo_prog.Names}, anything else gets a fresh location.
    [#] starts a comment.  Programs are loop-free by construction, so the
    resulting {!Litmus.t} can always be enumerated; its [drf0] flag is
    computed by {!Wo_prog.Enumerate.check_drf0_stateful}.  [forbid]/[exists]
    clauses become [interesting] predicates named ["forbidden"] and
    ["exists"]. *)

exception Parse_error of { line : int; message : string }

val of_string : string -> Litmus.t
(** @raise Parse_error on malformed text, on a processor numbered
    {!Wo_prog.Program.max_procs} or higher, on a thread longer than
    65,535 ops (before allocating it), and (with [line = 0]) when the
    DRF0 check exceeds its bounds (64 events per execution, 200,000
    executions) — an undecided program is never labelled racy. *)

val of_file : string -> Litmus.t
(** @raise Sys_error if the file cannot be read. *)
