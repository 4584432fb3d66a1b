(** The parallel substrate the campaigns share, and the workload sweep.

    {!parallel_map} fans independent cells out across OCaml 5
    [Domain]s; {!domain_session} gives each domain one reusable session
    per machine; {!program_key} is the structural identity of a program
    that SC outcome sets are memoized by ({!Key_tbl}).  Litmus cells —
    the Definition-2 checks — are settled by [Wo_campaign.Campaign]
    alone; this module runs only the workload × machine × seed product
    ({!workload_campaign}).

    Results are independent of the domain count: cells are pure
    functions of (workload, machine, runs, base_seed), and the output
    keeps the input product order. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1. *)

val parallel_map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map with the calls spread over [min domains
    (length items)] domains (strided assignment; the calling domain is
    one of the workers).  [f] must be safe to call from multiple
    domains at once.  If any call raises, every domain is still joined
    and the failure of the lowest worker index is re-raised — the same
    exception surfaces for a fixed domain count. *)

type program_key = { pk_digest : Digest.t; pk_payload : string }
(** Structural identity of the parts of a program the SC outcome set
    depends on.  The digest accelerates comparison; equality always
    confirms on the full payload, so a digest collision cannot alias
    two distinct programs.  (The representation is exposed exactly so
    tests can forge a colliding digest and exercise that path.) *)

val program_key : Wo_prog.Program.t -> program_key

val program_key_art :
  Wo_prog.Program.t -> program_key * Wo_prog.Prog_compile.t option
(** {!program_key} plus the compiled artifact the key was derived from
    (when the program is compilable) — callers that both key and run a
    program get the single compilation the key already paid for. *)

val domain_session :
  Wo_machines.Machine.t ->
  Wo_machines.Machine.session
(** The calling domain's reusable session for this machine,
    created on first use and cached in domain-local storage — never
    shared across domains, so each worker drives its own machine state.
    Cached by machine name with a physical-identity check: a different
    machine value under the same name replaces the stale session. *)

val find_keyed : program_key -> (program_key * 'a) list -> 'a option
(** First binding whose key is {e fully} equal (digest and payload). *)

(** Digest-indexed table over program keys — the one SC-set memo
    ([Wo_campaign.Campaign] keeps every SC set it enumerates in one).  A
    digest hit is confirmed on the full payload, so a collision cannot
    alias two programs. *)
module Key_tbl : sig
  type 'a t

  val create : int -> 'a t

  val find : 'a t -> program_key -> 'a option

  val add : 'a t -> program_key -> 'a -> unit
  (** Bind a key not yet in the table. *)
end

(** {1 Workload campaigns} *)

type workload_cell = {
  workload : Workload.t;
  w_machine : Wo_machines.Machine.t;
  avg_cycles : int;
  invariant_failures : int;
      (** runs whose outcome failed the workload's validator *)
}

val workload_campaign :
  ?runs:int ->
  ?base_seed:int ->
  ?domains:int ->
  machines:Wo_machines.Machine.t list ->
  Workload.t list ->
  workload_cell list
(** Run every workload on every machine ([runs] defaults to 20),
    averaging cycle counts over seeds; in [workloads × machines]
    product order.  Each cell's seed loop runs through a per-domain
    machine session with the workload compiled once. *)
