(** Synchronization models (Section 3).

    A synchronization model is "a set of constraints on memory accesses that
    specify how and when synchronization needs to be done".  Definition 2 is
    parameterized by one; this module represents the family used in the
    paper: models that require all conflicting accesses to be ordered by a
    happens-before relation, differing only in which synchronization-order
    edges contribute to it. *)

type t = {
  name : string;
  description : string;
  happens_before : Execution.t -> Happens_before.t;
      (** The happens-before relation this model induces on an idealized
          execution. *)
}

val drf0 : t
(** Data-Race-Free-0 (Definition 3): every pair of same-location
    synchronization operations synchronizes. *)

val drf1 : t
(** The Section-6 refinement: read-only synchronization operations do not
    order the issuing processor's previous accesses with respect to other
    processors; only write→read (release→acquire) synchronization pairs
    create cross-processor ordering. *)

val pp : Format.formatter -> t -> unit

(** {2 Hardware ordering models}

    Where a synchronization model constrains {e programs}, a hardware
    ordering model describes what a {e machine} may reorder.  Definition 2
    connects the two: hardware is weakly ordered with respect to a
    synchronization model iff programs obeying the model observe
    sequential consistency.  The descriptors below parameterize both the
    operational backends ({!Wo_machines.Ordering}) and the axiomatic
    reference enumerator ({!Wo_prog.Relaxed}) so the two sides of the
    differential harness agree on what each model permits. *)

type relaxation =
  | W_to_r
      (** a read may complete before an earlier write to a different
          location is globally performed (store-buffer bypass) *)
  | W_to_w
      (** writes to different locations may perform out of program order
          (per-location buffers / channels) *)
  | Acquire_no_drain
      (** read-only synchronization does not wait for earlier pending
          writes; only write synchronization is a release barrier *)

type hardware = {
  hname : string;
  hdescription : string;
  relaxations : relaxation list;
  forwarding : bool;
      (** reads return the youngest of the processor's own pending writes
          to the location, when one exists *)
}

val relaxes : hardware -> relaxation -> bool

val sc_hw : hardware
val tso_hw : hardware
val pso_hw : hardware
val ra_hw : hardware
(** [sc_hw], [tso_hw], [pso_hw], [ra_hw] are in strength order: each
    model's allowed behaviours are a subset of the next's. *)
