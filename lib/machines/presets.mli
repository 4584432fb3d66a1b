(** The machine zoo.

    Every system the paper discusses, ready to run:

    {ul
    {- Figure-1 configurations (each with the performance feature that
       breaks sequential consistency): {!bus_nocache_wb},
       {!net_nocache_weak}, {!bus_cache_wb}, {!net_cache_relaxed};}
    {- sequentially consistent baselines: {!sc_bus_nocache},
       {!net_nocache_rp3} (RP3-style per-access acknowledgements),
       {!sc_dir} (Scheurich–Dubois condition on the directory system);}
    {- weakly ordered machines: {!rp3_fence} (the RP3 fence option the
       paper cites as functioning as a weakly ordered system),
       {!wo_old} (Definition-1 hardware), {!wo_new} (the Section-5.3
       implementation), {!wo_new_drf1} (Section-6 refinement).}}

    The [*_config] values are exposed so experiments can vary parameters
    (e.g. Figure 3's slow invalidations) and rebuild a machine with
    {!Coherent.make}. *)

val sc_bus_nocache : Machine.t
val bus_nocache_wb : Machine.t
val net_nocache_weak : Machine.t
val net_nocache_rp3 : Machine.t
val rp3_fence : Machine.t
val sc_dir : Machine.t
val bus_cache_wb : Machine.t
val net_cache_relaxed : Machine.t
val wo_old : Machine.t
val wo_new : Machine.t
val wo_new_drf1 : Machine.t
val ideal : Machine.t

val tso_wb : Machine.t
val pso_wb : Machine.t
val ra_window : Machine.t

val models : Machine.t list
(** The relaxed consistency-model zoo ({!Ordering} backends): [tso-wb],
    [pso-wb], [ra-window].  Kept out of {!all} so the historical preset
    roster (and everything keyed on it) is unchanged; {!find} and
    {!spec_of} search both. *)

val specs : Spec.t list
(** One spec per preset, idealized machine first; [all] is exactly
    [List.map Spec.build specs]. *)

val model_specs : Spec.t list
(** One spec per {!models} machine. *)

val spec_of : string -> Spec.t option
(** Look up a preset's or model machine's spec by machine name. *)

val ideal_spec : Spec.t
val sc_bus_nocache_spec : Spec.t
val bus_nocache_wb_spec : Spec.t
val net_nocache_weak_spec : Spec.t
val net_nocache_rp3_spec : Spec.t
val rp3_fence_spec : Spec.t
val sc_dir_spec : Spec.t
val bus_cache_spec : Spec.t
val net_cache_spec : Spec.t
val wo_old_spec : Spec.t
val wo_new_spec : Spec.t
val wo_new_drf1_spec : Spec.t
val tso_wb_spec : Spec.t
val pso_wb_spec : Spec.t
val ra_window_spec : Spec.t

val sc_dir_config : Coherent.config
val net_cache_config : Coherent.config
val wo_old_config : Coherent.config
val wo_new_config : Coherent.config
val wo_new_drf1_config : Coherent.config

val all : Machine.t list
(** Every preset, idealized machine first. *)

val weakly_ordered : Machine.t list
(** The machines expected to appear SC to DRF0 programs. *)

val sequentially_consistent : Machine.t list

val find : string -> Machine.t option
(** Look up a preset or model machine by [Machine.name]. *)
