module Json = Wo_obs.Json

type sync_policy =
  | Sync_none
  | Sync_sc
  | Sync_fence
  | Sync_def1_stall
  | Sync_reserve_bit
  | Sync_drf1_two_level

type memory =
  | Ideal
  | Uncached of {
      write_buffer : Uncached.buffer_config option;
      wait_write_ack : bool;
      modules : int;
    }
  | Cached of { hit_cycles : int; capacity : int option; coarse_counter : bool }

type model =
  | Model_sc
  | Model_tso of { depth : int; drain_delay : int }
  | Model_pso of { depth : int; drain_delay : int }
  | Model_ra of { window : int; drain_delay : int }

type t = {
  name : string;
  description : string;
  fabric : Memsys.fabric_kind;
  memory : memory;
  model : model;
  sync : sync_policy;
  local_cost : int;
}

let default_cached =
  Cached
    {
      hit_cycles = Wo_cache.Cache_ctrl.default_config.Wo_cache.Cache_ctrl.hit_cycles;
      capacity = None;
      coarse_counter = false;
    }

(* Consistency classification follows from the knobs, so JSON machines
   cannot mislabel themselves.  A relaxed ordering model reorders by
   construction; with synchronization enforced it is weakly ordered with
   respect to DRF0 (TSO/PSO drain on every synchronization operation; RA
   drains on releases, which every guaranteed cross-processor
   happens-before chain passes through). *)
let flags (s : t) =
  if s.model <> Model_sc then (false, s.sync <> Sync_none)
  else
  match s.memory with
  | Ideal -> (true, true)
  | Uncached u ->
    let wo = s.sync <> Sync_none in
    (u.wait_write_ack && u.write_buffer = None && wo, wo)
  | Cached _ -> (
    match s.sync with
    | Sync_none -> (false, false)
    | Sync_sc -> (true, true)
    | Sync_fence | Sync_def1_stall | Sync_reserve_bit | Sync_drf1_two_level ->
      (false, true))

let sequentially_consistent s = fst (flags s)
let weakly_ordered_drf0 s = snd (flags s)

let uncached_config (s : t) : Uncached.config =
  match s.memory with
  | Uncached { write_buffer; wait_write_ack; modules } ->
    {
      Uncached.fabric = s.fabric;
      write_buffer;
      wait_write_ack;
      (* Any enforcement on an uncached machine is fence-flavoured:
         synchronization drains the buffer and waits for every
         outstanding acknowledgement. *)
      flush_buffer_on_sync = s.sync <> Sync_none;
      modules;
      local_cost = s.local_cost;
    }
  | Ideal | Cached _ ->
    invalid_arg (Printf.sprintf "Spec.uncached_config: %s is not uncached" s.name)

let cached_policy = function
  | Sync_none -> Coherent.relaxed_policy
  | Sync_sc -> Coherent.sc_policy
  | Sync_def1_stall -> Coherent.def1_policy
  | Sync_reserve_bit | Sync_drf1_two_level -> Coherent.def2_policy
  | Sync_fence ->
    (* Fence on a cached machine: only synchronization operations gate on
       the outstanding-access counter, and the processor resumes once the
       synchronization commits.  None of the presets uses it — it is the
       spec layer's own point in the design space. *)
    {
      Coherent.pname = "fence";
      sync_as_data = false;
      gate = Coherent.Gate_sync_only;
      sync_wait = Coherent.Sync_wait_commit;
    }

let cached_config (s : t) : Coherent.config =
  match s.memory with
  | Cached { hit_cycles; capacity; coarse_counter } ->
    {
      Coherent.fabric = s.fabric;
      policy = cached_policy s.sync;
      cache =
        {
          Wo_cache.Cache_ctrl.hit_cycles;
          reserve_enabled =
            (match s.sync with
            | Sync_reserve_bit | Sync_drf1_two_level -> true
            | _ -> false);
          sync_read_shared =
            (match s.sync with
            | Sync_def1_stall | Sync_drf1_two_level -> true
            | _ -> false);
          capacity;
          coarse_counter;
        };
      slow_procs = [];
      slow_routes = [];
      local_cost = s.local_cost;
      migrations = [];
    }
  | Ideal | Uncached _ ->
    invalid_arg (Printf.sprintf "Spec.cached_config: %s is not cached" s.name)

let ordering_kind = function
  | Model_sc -> invalid_arg "Spec.ordering_kind: Model_sc has no ordering backend"
  | Model_tso { depth; drain_delay } -> Ordering.Tso { depth; drain_delay }
  | Model_pso { depth; drain_delay } -> Ordering.Pso { depth; drain_delay }
  | Model_ra { window; drain_delay } -> Ordering.Ra { window; drain_delay }

let model_hardware = function
  | Model_sc -> Wo_core.Sync_model.sc_hw
  | Model_tso _ -> Wo_core.Sync_model.tso_hw
  | Model_pso _ -> Wo_core.Sync_model.pso_hw
  | Model_ra _ -> Wo_core.Sync_model.ra_hw

(* The relaxed-ordering backend config this spec denotes.  Raises
   [Invalid_argument] if [model] is [Model_sc] or [memory] is not
   [Uncached]. *)
let ordering_config (s : t) : Ordering.config =
  if s.model = Model_sc then
    invalid_arg
      (Printf.sprintf "Spec.ordering_config: %s has no ordering model" s.name);
  let modules =
    match s.memory with
    | Uncached { modules; _ } -> modules
    | Ideal | Cached _ ->
      invalid_arg
        (Printf.sprintf
           "Spec.ordering_config: %s: relaxed ordering models require \
            uncached memory"
           s.name)
  in
  {
    Ordering.fabric = s.fabric;
    kind = ordering_kind s.model;
    sync_barriers = s.sync <> Sync_none;
    modules;
    local_cost = s.local_cost;
  }

(* Everything [build] hands a backend apart from the name and the
   description: the resolved config, or nothing for the ideal machine.
   [build] and [run_key] both go through it, so a knob a backend starts
   reading enters the key by itself. *)
type backend =
  | B_ideal
  | B_ordering of Ordering.config
  | B_uncached of Uncached.config
  | B_cached of Coherent.config

let backend (s : t) =
  if s.model <> Model_sc then B_ordering (ordering_config s)
  else
    match s.memory with
    | Ideal -> B_ideal
    | Uncached _ -> B_uncached (uncached_config s)
    | Cached _ -> B_cached (cached_config s)

let build (s : t) : Machine.t =
  let sequentially_consistent, weakly_ordered_drf0 = flags s in
  match backend s with
  | B_ideal ->
    { Ideal.machine with Machine.name = s.name; description = s.description }
  | B_ordering c ->
    Ordering.make ~name:s.name ~description:s.description
      ~sequentially_consistent ~weakly_ordered_drf0 c
  | B_uncached c ->
    Uncached.make ~name:s.name ~description:s.description
      ~sequentially_consistent ~weakly_ordered_drf0 c
  | B_cached c ->
    Coherent.make ~name:s.name ~description:s.description
      ~sequentially_consistent ~weakly_ordered_drf0 c

(* Figure 1's configuration-1 store buffer has two implementations: an
   uncached write buffer with read bypass and forwarding, and the TSO
   ordering backend.  They agree run for run except where
   - a thread can hold more than [depth] writes outstanding: the
     uncached buffer pops an entry when it starts draining, so it holds
     [depth + 1], while TSO counts the entry in flight;
   - an RMW meets its own location still buffered under [Sync_none]: the
     uncached buffer waits for the whole buffer, TSO only for that
     location (with [flush_buffer_on_sync] the RMW drains first).
   So the buffer resolves to TSO only on loop-free programs with at most
   [depth] writes per thread, and with synchronization flushing or
   absent.  The buffer has no [wait_write_ack] counterpart under TSO, so
   only a buffer that does not wait resolves. *)
let as_tso (f : Wo_prog.Program.features) = function
  | B_uncached
      {
        Uncached.fabric;
        write_buffer =
          Some { Uncached.depth; read_bypass = true; forwarding = true; drain_delay };
        wait_write_ack = false;
        flush_buffer_on_sync;
        modules;
        local_cost;
      }
    when f.loop_free
         && f.max_thread_writes <= depth
         && (flush_buffer_on_sync || f.sync_free) ->
    B_ordering
      {
        Ordering.fabric;
        kind = Ordering.Tso { depth; drain_delay };
        sync_barriers = flush_buffer_on_sync;
        modules;
        local_cost;
      }
  | b -> b

(* On a program without synchronization instructions, the knobs that
   only synchronization reads take one value.  Each is listed by name;
   a field not listed here stays in the key (the coherent policy is
   rebuilt whole, so a new policy field must be placed here to compile),
   and a new knob can cost sharing but never merge machines that differ.
   The policy keeps its gate where it gates data too ([Gate_every_op]);
   its [pname] is a label no run reads. *)
let sync_blind = function
  | B_ideal -> B_ideal
  | B_ordering c -> B_ordering { c with Ordering.sync_barriers = false }
  | B_uncached c -> B_uncached { c with Uncached.flush_buffer_on_sync = false }
  | B_cached c ->
    let p = c.Coherent.policy and cache = c.Coherent.cache in
    B_cached
      {
        c with
        Coherent.policy =
          {
            Coherent.pname = "";
            sync_as_data = false;
            sync_wait = Coherent.Sync_wait_commit;
            gate =
              (match p.Coherent.gate with
              | Coherent.Gate_sync_only -> Coherent.Gate_never
              | g -> g);
          };
        cache =
          {
            cache with
            Wo_cache.Cache_ctrl.reserve_enabled = false;
            sync_read_shared = false;
          };
      }

(* The configs are plain data (no closures, no mutable state), so their
   structural encoding is a canonical identity; [No_sharing] keeps it
   independent of how the values happen to share substructure. *)
let run_key (s : t) (f : Wo_prog.Program.features) =
  let b = as_tso f (backend s) in
  let b = if f.Wo_prog.Program.sync_free then sync_blind b else b in
  Marshal.to_string b [ Marshal.No_sharing ]

(* --- names ----------------------------------------------------------------- *)

let sync_to_string = function
  | Sync_none -> "none"
  | Sync_sc -> "sc"
  | Sync_fence -> "fence"
  | Sync_def1_stall -> "def1-stall"
  | Sync_reserve_bit -> "reserve-bit"
  | Sync_drf1_two_level -> "drf1-two-level"

let sync_of_string = function
  | "none" -> Some Sync_none
  | "sc" -> Some Sync_sc
  | "fence" -> Some Sync_fence
  | "def1-stall" -> Some Sync_def1_stall
  | "reserve-bit" -> Some Sync_reserve_bit
  | "drf1-two-level" -> Some Sync_drf1_two_level
  | _ -> None

let model_to_string m = (model_hardware m).Wo_core.Sync_model.hname

let model_of_string = function
  | "sc" -> Some Model_sc
  | "tso" -> Some (Model_tso { depth = 8; drain_delay = 6 })
  | "pso" -> Some (Model_pso { depth = 8; drain_delay = 6 })
  | "ra" -> Some (Model_ra { window = 8; drain_delay = 6 })
  | _ -> None

(* Short name for grid-generated machine names, e.g. ["net4j6"]. *)
let fabric_slug = function
  | Memsys.Bus { transfer_cycles } -> Printf.sprintf "bus%d" transfer_cycles
  | Memsys.Net { base; jitter } -> Printf.sprintf "net%dj%d" base jitter
  | Memsys.Net_spiky { base; jitter; _ } ->
    Printf.sprintf "spiky%dj%d" base jitter
  | Memsys.Net_fixed { latency } -> Printf.sprintf "fix%d" latency

(* --- JSON ------------------------------------------------------------------ *)

let fabric_to_json = function
  | Memsys.Bus { transfer_cycles } ->
    Json.Obj [ ("kind", Json.String "bus"); ("transfer_cycles", Json.Int transfer_cycles) ]
  | Memsys.Net { base; jitter } ->
    Json.Obj
      [ ("kind", Json.String "net"); ("base", Json.Int base); ("jitter", Json.Int jitter) ]
  | Memsys.Net_spiky { base; jitter; spike_probability; spike_factor } ->
    Json.Obj
      [
        ("kind", Json.String "net-spiky");
        ("base", Json.Int base);
        ("jitter", Json.Int jitter);
        ("spike_probability", Json.Float spike_probability);
        ("spike_factor", Json.Int spike_factor);
      ]
  | Memsys.Net_fixed { latency } ->
    Json.Obj [ ("kind", Json.String "net-fixed"); ("latency", Json.Int latency) ]

let memory_to_json = function
  | Ideal -> Json.Obj [ ("kind", Json.String "ideal") ]
  | Uncached { write_buffer; wait_write_ack; modules } ->
    Json.Obj
      [
        ("kind", Json.String "uncached");
        ("modules", Json.Int modules);
        ("wait_write_ack", Json.Bool wait_write_ack);
        ( "write_buffer",
          match write_buffer with
          | None -> Json.Null
          | Some b ->
            Json.Obj
              [
                ("depth", Json.Int b.Uncached.depth);
                ("read_bypass", Json.Bool b.Uncached.read_bypass);
                ("forwarding", Json.Bool b.Uncached.forwarding);
                ("drain_delay", Json.Int b.Uncached.drain_delay);
              ] );
      ]
  | Cached { hit_cycles; capacity; coarse_counter } ->
    Json.Obj
      [
        ("kind", Json.String "cached");
        ("hit_cycles", Json.Int hit_cycles);
        ( "capacity",
          match capacity with None -> Json.Null | Some c -> Json.Int c );
        ("coarse_counter", Json.Bool coarse_counter);
      ]

let model_to_json = function
  | Model_sc -> Json.String "sc"
  | Model_tso { depth; drain_delay } ->
    Json.Obj
      [
        ("kind", Json.String "tso");
        ("depth", Json.Int depth);
        ("drain_delay", Json.Int drain_delay);
      ]
  | Model_pso { depth; drain_delay } ->
    Json.Obj
      [
        ("kind", Json.String "pso");
        ("depth", Json.Int depth);
        ("drain_delay", Json.Int drain_delay);
      ]
  | Model_ra { window; drain_delay } ->
    Json.Obj
      [
        ("kind", Json.String "ra");
        ("window", Json.Int window);
        ("drain_delay", Json.Int drain_delay);
      ]

let to_json (s : t) =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("description", Json.String s.description);
      ("fabric", fabric_to_json s.fabric);
      ("memory", memory_to_json s.memory);
      ("model", model_to_json s.model);
      ("sync", Json.String (sync_to_string s.sync));
      ("local_cost", Json.Int s.local_cost);
    ]

let to_string ?pretty s = Json.to_string ?pretty (to_json s)

let ( let* ) = Result.bind

let field_int ?default name j =
  match Json.member name j with
  | None | Some Json.Null -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing integer field %S" name))
  | Some v -> (
    match Json.to_int_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S: expected an integer" name))

let field_bool ?default name j =
  match Json.member name j with
  | None | Some Json.Null -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing boolean field %S" name))
  | Some v -> (
    match Json.to_bool_opt v with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "field %S: expected a boolean" name))

let field_string ?default name j =
  match Json.member name j with
  | None | Some Json.Null -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing string field %S" name))
  | Some v -> (
    match Json.to_string_opt v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %S: expected a string" name))

let field_float ?default name j =
  match Json.member name j with
  | None | Some Json.Null -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing number field %S" name))
  | Some v -> (
    match Json.to_float_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "field %S: expected a number" name))

(* The backends schedule every latency, hit time, drain delay and local
   cost as an engine delay, which must be non-negative.  Capping each
   at [max_cycles] keeps the clock in range too: the engine's 50M-event
   budget times 2^32 cycles per event stays below [max_int]. *)
let max_cycles = 1 lsl 32

(* Memory modules are network nodes, built eagerly one handler each. *)
let max_modules = 1 lsl 16

let must name what = Error (Printf.sprintf "field %S: must be %s" name what)

let field_cycles ?default name j =
  let* v = field_int ?default name j in
  if v >= 0 && v <= max_cycles then Ok v
  else must name (Printf.sprintf "between 0 and %d cycles" max_cycles)

let field_positive ?default ?(max = max_int) name j =
  let* v = field_int ?default name j in
  if v >= 1 && v <= max then Ok v
  else if max = max_int then must name "positive"
  else must name (Printf.sprintf "between 1 and %d" max)

(* [base + jitter] is the largest jittered latency; a spike multiplies
   it by [spike_factor]. *)
let net_latency j =
  let* base = field_cycles ~default:4 "base" j in
  let* jitter = field_cycles ~default:6 "jitter" j in
  if base + jitter <= max_cycles then Ok (base, jitter)
  else
    must "jitter"
      (Printf.sprintf "at most %d - base (base + jitter is a latency)"
         max_cycles)

let fabric_of_json j =
  let* kind = field_string "kind" j in
  match kind with
  | "bus" ->
    let* transfer_cycles = field_cycles ~default:2 "transfer_cycles" j in
    Ok (Memsys.Bus { transfer_cycles })
  | "net" ->
    let* base, jitter = net_latency j in
    Ok (Memsys.Net { base; jitter })
  | "net-spiky" ->
    let* base, jitter = net_latency j in
    let* spike_probability = field_float "spike_probability" j in
    let* () =
      if spike_probability >= 0. && spike_probability <= 1. then Ok ()
      else must "spike_probability" "between 0 and 1"
    in
    let* spike_factor =
      field_positive ~max:(max_cycles / max 1 (base + jitter)) "spike_factor" j
    in
    Ok (Memsys.Net_spiky { base; jitter; spike_probability; spike_factor })
  | "net-fixed" ->
    let* latency = field_cycles "latency" j in
    Ok (Memsys.Net_fixed { latency })
  | k -> Error (Printf.sprintf "unknown fabric kind %S" k)

let memory_of_json j =
  let* kind = field_string "kind" j in
  match kind with
  | "ideal" -> Ok Ideal
  | "uncached" ->
    let* modules = field_positive ~default:1 ~max:max_modules "modules" j in
    let* wait_write_ack = field_bool ~default:false "wait_write_ack" j in
    let* write_buffer =
      match Json.member "write_buffer" j with
      | None | Some Json.Null -> Ok None
      | Some b ->
        let* depth = field_positive "depth" b in
        let* read_bypass = field_bool ~default:true "read_bypass" b in
        let* forwarding = field_bool ~default:true "forwarding" b in
        let* drain_delay = field_cycles ~default:6 "drain_delay" b in
        Ok (Some { Uncached.depth; read_bypass; forwarding; drain_delay })
    in
    Ok (Uncached { write_buffer; wait_write_ack; modules })
  | "cached" ->
    let* hit_cycles = field_cycles ~default:1 "hit_cycles" j in
    let* capacity =
      match Json.member "capacity" j with
      | None | Some Json.Null -> Ok None
      | Some v -> (
        match Json.to_int_opt v with
        | Some c when c >= 1 -> Ok (Some c)
        | Some _ -> must "capacity" "positive (or null for unbounded)"
        | None -> Error "field \"capacity\": expected an integer or null")
    in
    let* coarse_counter = field_bool ~default:false "coarse_counter" j in
    Ok (Cached { hit_cycles; capacity; coarse_counter })
  | k -> Error (Printf.sprintf "unknown memory kind %S" k)

(* A bare name ("tso") takes the default knobs; the object form spells
   them out, as [to_json] always does for non-SC models. *)
let model_of_json j =
  let parametrized kind j =
    let* drain_delay = field_cycles ~default:6 "drain_delay" j in
    match kind with
    | "tso" ->
      let* depth = field_positive ~default:8 "depth" j in
      Ok (Model_tso { depth; drain_delay })
    | "pso" ->
      let* depth = field_positive ~default:8 "depth" j in
      Ok (Model_pso { depth; drain_delay })
    | "ra" ->
      let* window = field_positive ~default:8 "window" j in
      Ok (Model_ra { window; drain_delay })
    | k -> Error (Printf.sprintf "unknown ordering model %S" k)
  in
  match j with
  | Json.String "sc" -> Ok Model_sc
  | Json.String k -> parametrized k (Json.Obj [])
  | Json.Obj _ ->
    let* kind = field_string "kind" j in
    if kind = "sc" then Ok Model_sc else parametrized kind j
  | _ -> Error "field \"model\": expected a string or an object"

let default_ordering_memory =
  Uncached { write_buffer = None; wait_write_ack = false; modules = 1 }

let of_json j =
  let* name = field_string "name" j in
  let* description = field_string ~default:"" "description" j in
  let* fabric =
    match Json.member "fabric" j with
    | None | Some Json.Null -> Ok Coherent.default_net
    | Some f -> fabric_of_json f
  in
  let* model =
    match Json.member "model" j with
    | None | Some Json.Null -> Ok Model_sc
    | Some m -> model_of_json m
  in
  let* memory =
    match Json.member "memory" j with
    | None | Some Json.Null ->
      Ok (if model = Model_sc then default_cached else default_ordering_memory)
    | Some m -> memory_of_json m
  in
  let* () =
    match (model, memory) with
    | Model_sc, _ | _, Uncached _ -> Ok ()
    | _, (Ideal | Cached _) ->
      Error
        (Printf.sprintf
           "model %S requires uncached memory (or omit \"memory\")"
           (model_to_string model))
  in
  let* sync =
    let* s = field_string ~default:"none" "sync" j in
    match sync_of_string s with
    | Some sy -> Ok sy
    | None -> Error (Printf.sprintf "unknown sync policy %S" s)
  in
  let* local_cost = field_positive ~default:1 ~max:max_cycles "local_cost" j in
  Ok { name; description; fabric; memory; model; sync; local_cost }

let of_string s =
  let* j = Json.of_string s in
  of_json j

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> (
    match of_string contents with
    | Ok s -> Ok s
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

(* --- grids ----------------------------------------------------------------- *)

let grid ?fabrics ?syncs ?models (base : t) : t list =
  let fabrics = Option.value fabrics ~default:[ base.fabric ] in
  let syncs = Option.value syncs ~default:[ base.sync ] in
  let models = Option.value models ~default:[ base.model ] in
  List.concat_map
    (fun fabric ->
      List.concat_map
        (fun sync ->
          List.map
            (fun model ->
              (* Names only grow a model suffix when a relaxed model is in
                 play, so SC grids keep their historical names.  Relaxed
                 models need uncached memory; a cached/ideal base falls
                 back to the one-module default. *)
              let name =
                let stem =
                  Printf.sprintf "%s/%s+%s" base.name (fabric_slug fabric)
                    (sync_to_string sync)
                in
                if model = Model_sc then stem
                else stem ^ "@" ^ model_to_string model
              in
              let memory =
                match (model, base.memory) with
                | Model_sc, m | _, (Uncached _ as m) -> m
                | _, (Ideal | Cached _) -> default_ordering_memory
              in
              { base with name; fabric; sync; model; memory })
            models)
        syncs)
    fabrics
