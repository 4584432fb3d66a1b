(* The machine-spec layer: spec-built presets must be byte-identical to
   machines assembled directly from the frozen seed configs, and the JSON
   form must round-trip.  This is the contract that lets Presets define
   every machine as data without changing a single simulated cycle. *)

module M = Wo_machines.Machine
module P = Wo_machines.Presets
module S = Wo_machines.Spec
module U = Wo_machines.Uncached
module C = Wo_machines.Coherent
module L = Wo_litmus.Litmus

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- byte identity against the frozen seed configs -------------------------- *)

(* One digest per run covering everything a machine produces: outcome,
   trace, timing, stats, stall attribution, message taps.  Two machines
   with equal digests on every (test, seed) cell are indistinguishable
   to every consumer in the repository. *)
let fingerprint (m : M.t) ~seed program =
  let r = M.run m ~seed program in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.M.outcome,
            Wo_sim.Trace.entries r.M.trace,
            r.M.cycles,
            r.M.proc_finish,
            List.sort compare (M.stats r),
            Wo_obs.Stall.to_stats r.M.stalls,
            Wo_obs.Tap.to_stats r.M.taps )
          []))

(* The driver configs exactly as the seed presets hard-coded them,
   before Presets became spec-built.  Kept frozen here on purpose: if
   Spec's knob derivation drifts, these do not drift with it. *)
let frozen_uncached name ~sc ~wo config =
  U.make ~name ~description:"" ~sequentially_consistent:sc
    ~weakly_ordered_drf0:wo config

let frozen_coherent name ~sc ~wo config =
  C.make ~name ~description:"" ~sequentially_consistent:sc
    ~weakly_ordered_drf0:wo config

let bus = Wo_machines.Memsys.Bus { transfer_cycles = 2 }
let net = Wo_machines.Memsys.Net { base = 4; jitter = 6 }

let base_coherent fabric policy cache =
  {
    C.fabric;
    policy;
    cache;
    slow_procs = [];
    slow_routes = [];
    local_cost = 1;
    migrations = [];
  }

let frozen_pairs =
  [
    (P.ideal_spec, Wo_machines.Ideal.machine);
    ( P.sc_bus_nocache_spec,
      frozen_uncached "sc-bus-nocache" ~sc:true ~wo:true
        {
          U.fabric = bus;
          write_buffer = None;
          wait_write_ack = true;
          flush_buffer_on_sync = true;
          modules = 1;
          local_cost = 1;
        } );
    ( P.bus_nocache_wb_spec,
      frozen_uncached "bus-nocache-wb" ~sc:false ~wo:true
        {
          U.fabric = bus;
          write_buffer =
            Some
              {
                U.depth = 8;
                read_bypass = true;
                forwarding = true;
                drain_delay = 6;
              };
          wait_write_ack = false;
          flush_buffer_on_sync = true;
          modules = 1;
          local_cost = 1;
        } );
    ( P.net_nocache_weak_spec,
      frozen_uncached "net-nocache" ~sc:false ~wo:false
        {
          U.fabric = net;
          write_buffer = None;
          wait_write_ack = false;
          flush_buffer_on_sync = false;
          modules = 4;
          local_cost = 1;
        } );
    ( P.net_nocache_rp3_spec,
      frozen_uncached "net-nocache-rp3" ~sc:true ~wo:true
        {
          U.fabric = net;
          write_buffer = None;
          wait_write_ack = true;
          flush_buffer_on_sync = true;
          modules = 4;
          local_cost = 1;
        } );
    ( P.rp3_fence_spec,
      frozen_uncached "rp3-fence" ~sc:false ~wo:true
        {
          U.fabric = net;
          write_buffer = None;
          wait_write_ack = false;
          flush_buffer_on_sync = true;
          modules = 4;
          local_cost = 1;
        } );
    ( P.sc_dir_spec,
      frozen_coherent "sc-dir" ~sc:true ~wo:true
        (base_coherent net C.sc_policy Wo_cache.Cache_ctrl.default_config) );
    ( P.bus_cache_spec,
      frozen_coherent "bus-cache" ~sc:false ~wo:false
        (base_coherent bus C.relaxed_policy Wo_cache.Cache_ctrl.default_config) );
    ( P.net_cache_spec,
      frozen_coherent "net-cache" ~sc:false ~wo:false
        (base_coherent net C.relaxed_policy Wo_cache.Cache_ctrl.default_config) );
    ( P.wo_old_spec,
      frozen_coherent "wo-old" ~sc:false ~wo:true
        (base_coherent net C.def1_policy
           { Wo_cache.Cache_ctrl.default_config with sync_read_shared = true }) );
    ( P.wo_new_spec,
      frozen_coherent "wo-new" ~sc:false ~wo:true
        (base_coherent net C.def2_policy
           { Wo_cache.Cache_ctrl.default_config with reserve_enabled = true }) );
    ( P.wo_new_drf1_spec,
      frozen_coherent "wo-new-drf1" ~sc:false ~wo:true
        (base_coherent net C.def2_policy
           {
             Wo_cache.Cache_ctrl.default_config with
             reserve_enabled = true;
             sync_read_shared = true;
           }) );
  ]

let test_spec_builds_byte_identical () =
  List.iter
    (fun ((spec : S.t), (frozen : M.t)) ->
      let built = S.build spec in
      check_string
        (Printf.sprintf "%s: flags" spec.S.name)
        (Printf.sprintf "sc=%b wo=%b" frozen.M.sequentially_consistent
           frozen.M.weakly_ordered_drf0)
        (Printf.sprintf "sc=%b wo=%b" built.M.sequentially_consistent
           built.M.weakly_ordered_drf0);
      List.iter
        (fun (t : L.t) ->
          for seed = 1 to 3 do
            check_string
              (Printf.sprintf "%s on %s seed %d" spec.S.name t.L.name seed)
              (fingerprint frozen ~seed t.L.program)
              (fingerprint built ~seed t.L.program)
          done)
        L.all)
    frozen_pairs

let test_specs_cover_presets () =
  check_int "one spec per preset machine" (List.length P.all)
    (List.length P.specs);
  List.iter
    (fun (m : M.t) ->
      match P.spec_of m.M.name with
      | None -> Alcotest.failf "preset %s has no spec" m.M.name
      | Some s ->
        check_string (m.M.name ^ ": spec name") m.M.name s.S.name;
        check (m.M.name ^ ": derived SC flag") m.M.sequentially_consistent
          (S.sequentially_consistent s);
        check (m.M.name ^ ": derived WO flag") m.M.weakly_ordered_drf0
          (S.weakly_ordered_drf0 s))
    P.all

(* --- JSON round-trip --------------------------------------------------------- *)

let gen_spec =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  let fabric =
    oneof
      [
        map
          (fun transfer_cycles -> Wo_machines.Memsys.Bus { transfer_cycles })
          (int_range 1 5);
        map2
          (fun base jitter -> Wo_machines.Memsys.Net { base; jitter })
          (int_range 1 8) (int_range 0 8);
        (* spike probabilities are 64ths so the %.12g printer is exact *)
        map3
          (fun base jitter (k, spike_factor) ->
            Wo_machines.Memsys.Net_spiky
              {
                base;
                jitter;
                spike_probability = float_of_int k /. 64.0;
                spike_factor;
              })
          (int_range 1 8) (int_range 0 8)
          (pair (int_range 1 63) (int_range 2 20));
        map
          (fun latency -> Wo_machines.Memsys.Net_fixed { latency })
          (int_range 1 10);
      ]
  in
  let write_buffer =
    option
      (map3
         (fun depth (read_bypass, forwarding) drain_delay ->
           { U.depth; read_bypass; forwarding; drain_delay })
         (int_range 1 16) (pair bool bool) (int_range 0 8))
  in
  let memory =
    oneof
      [
        return S.Ideal;
        map3
          (fun write_buffer wait_write_ack modules ->
            S.Uncached { write_buffer; wait_write_ack; modules })
          write_buffer bool (int_range 1 8);
        map3
          (fun hit_cycles capacity coarse_counter ->
            S.Cached { hit_cycles; capacity; coarse_counter })
          (int_range 1 4)
          (option (int_range 1 8))
          bool;
      ]
  in
  let sync =
    oneofl
      [
        S.Sync_none;
        S.Sync_sc;
        S.Sync_fence;
        S.Sync_def1_stall;
        S.Sync_reserve_bit;
        S.Sync_drf1_two_level;
      ]
  in
  let model =
    oneof
      [
        return S.Model_sc;
        map2
          (fun depth drain_delay -> S.Model_tso { depth; drain_delay })
          (int_range 1 16) (int_range 0 8);
        map2
          (fun depth drain_delay -> S.Model_pso { depth; drain_delay })
          (int_range 1 16) (int_range 0 8);
        map2
          (fun window drain_delay -> S.Model_ra { window; drain_delay })
          (int_range 1 16) (int_range 0 8);
      ]
  in
  map3
    (fun name (fabric, memory) ((sync, model), local_cost) ->
      (* relaxed models only pair with uncached memory *)
      let memory =
        match (model, memory) with
        | S.Model_sc, m | _, (S.Uncached _ as m) -> m
        | _, (S.Ideal | S.Cached _) ->
          S.Uncached { write_buffer = None; wait_write_ack = false; modules = 1 }
      in
      { S.name; description = "generated"; fabric; memory; model; sync; local_cost })
    name (pair fabric memory)
    (pair (pair sync model) (int_range 1 3))

let arbitrary_spec = QCheck.make ~print:(S.to_string ~pretty:true) gen_spec

let prop_json_roundtrip =
  QCheck.Test.make ~name:"spec -> JSON -> spec is the identity" ~count:200
    arbitrary_spec (fun spec ->
      match S.of_string (S.to_string spec) with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
      | Ok spec' ->
        (* structural identity, and the printed form is a fixpoint *)
        spec' = spec && S.to_string spec' = S.to_string spec)

let test_preset_specs_roundtrip () =
  List.iter
    (fun (s : S.t) ->
      match S.of_string (S.to_string ~pretty:true s) with
      | Error e -> Alcotest.failf "%s: %s" s.S.name e
      | Ok s' -> check (s.S.name ^ " round-trips") true (s' = s))
    P.specs

let test_json_defaults () =
  match S.of_string {|{ "name": "bare" }|} with
  | Error e -> Alcotest.failf "minimal spec rejected: %s" e
  | Ok s ->
    check_string "name" "bare" s.S.name;
    check_string "description defaults empty" "" s.S.description;
    check "fabric defaults to the standard net" true (s.S.fabric = C.default_net);
    check "memory defaults to cached" true (s.S.memory = S.default_cached);
    check "model defaults to sc" true (s.S.model = S.Model_sc);
    check "sync defaults to none" true (s.S.sync = S.Sync_none);
    check_int "local_cost defaults to 1" 1 s.S.local_cost

let test_json_model_field () =
  (* a bare model name takes the default knobs, and a relaxed model
     flips the memory default from cached to one-module uncached *)
  (match S.of_string {|{ "name": "x", "model": "tso" }|} with
  | Error e -> Alcotest.failf "bare model name rejected: %s" e
  | Ok s ->
    check "bare tso takes default knobs" true
      (s.S.model = S.Model_tso { depth = 8; drain_delay = 6 });
    check "relaxed model defaults memory to uncached" true
      (match s.S.memory with S.Uncached _ -> true | _ -> false);
    check "a relaxed machine is not SC" false (S.sequentially_consistent s));
  match
    S.of_string
      {|{ "name": "x", "model": { "kind": "ra", "window": 4, "drain_delay": 2 } }|}
  with
  | Error e -> Alcotest.failf "model object rejected: %s" e
  | Ok s ->
    check "model object knobs parsed" true
      (s.S.model = S.Model_ra { window = 4; drain_delay = 2 })

let test_json_rejects_bad_spec () =
  let bad =
    [
      {|{ "name": "x", "sync": "release-consistency" }|};
      {|{ "name": "x", "fabric": { "kind": "token-ring" } }|};
      {|{ "name": "x", "memory": { "kind": "drum" } }|};
      {|{ "name": "x", "model": "release-consistency" }|};
      {|{ "name": "x", "model": "tso", "memory": { "kind": "cached" } }|};
      {|{ "name": "x", "model": "pso", "memory": { "kind": "ideal" } }|};
      {|[1, 2, 3]|};
      {|{ }|};
    ]
  in
  List.iter
    (fun text ->
      match S.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad spec: %s" text)
    bad

(* Knobs the backends cannot run with are rejected by the decoder with
   a typed field error, never left for a backend to raise on. *)
let test_json_rejects_out_of_range () =
  let bad =
    [
      ("transfer_cycles", {|"fabric": { "kind": "bus", "transfer_cycles": -3 }|});
      ("jitter", {|"fabric": { "kind": "net", "jitter": 4611686018427387903 }|});
      ("jitter", {|"fabric": { "kind": "net", "base": 1, "jitter": 4294967296 }|});
      ("base", {|"fabric": { "kind": "net", "base": -5 }|});
      ("latency", {|"fabric": { "kind": "net-fixed", "latency": -1 }|});
      ( "spike_factor",
        {|"fabric": { "kind": "net-spiky", "spike_probability": 0.5, "spike_factor": -3 }|}
      );
      ( "spike_probability",
        {|"fabric": { "kind": "net-spiky", "spike_probability": 1.5, "spike_factor": 3 }|}
      );
      ("hit_cycles", {|"memory": { "kind": "cached", "hit_cycles": -1 }|});
      ("capacity", {|"memory": { "kind": "cached", "capacity": 0 }|});
      ("capacity", {|"memory": { "kind": "cached", "capacity": -1 }|});
      ("modules", {|"memory": { "kind": "uncached", "modules": 0 }|});
      ("modules", {|"memory": { "kind": "uncached", "modules": -2 }|});
      ("depth", {|"memory": { "kind": "uncached", "write_buffer": { "depth": 0 } }|});
      ("depth", {|"model": { "kind": "tso", "depth": 0 }|});
      ("window", {|"model": { "kind": "ra", "window": 0 }|});
      ("drain_delay", {|"model": { "kind": "pso", "drain_delay": -5 }|});
      ("local_cost", {|"local_cost": -4|});
      (* a local instruction takes at least one cycle: 0 is not run as 1 *)
      ("local_cost", {|"local_cost": 0|});
    ]
  in
  List.iter
    (fun (field, body) ->
      let text = Printf.sprintf {|{ "name": "x", %s }|} body in
      let want = Printf.sprintf "field %S: must be" field in
      match S.of_string text with
      | Ok _ -> Alcotest.failf "accepted out-of-range spec: %s" text
      | Error e ->
        check
          (Printf.sprintf "%s: %S names the field" text e)
          true
          (String.length e >= String.length want
          && String.sub e 0 (String.length want) = want))
    bad;
  check "local_cost names its range" true
    (S.of_string {|{ "name": "x", "local_cost": 0 }|}
    = Error {|field "local_cost": must be between 1 and 4294967296|});
  (* the smallest legal values still decode and run *)
  match
    S.of_string
      {|{ "name": "x", "fabric": { "kind": "bus", "transfer_cycles": 0 },
          "memory": { "kind": "cached", "hit_cycles": 0, "capacity": 1 },
          "local_cost": 1 }|}
  with
  | Error e -> Alcotest.failf "boundary spec rejected: %s" e
  | Ok spec ->
    let t = List.find (fun (t : L.t) -> t.L.name = "message-passing-sync") L.all in
    ignore (M.run (S.build spec) ~seed:1 t.L.program)

(* --- a JSON-defined machine, end to end -------------------------------------- *)

(* The cached fence machine: a design point no preset occupies
   (synchronization gates on the counter and resumes at commit). *)
let fence_json =
  {|{
  "name": "cached-fence",
  "fabric": { "kind": "net", "base": 4, "jitter": 6 },
  "memory": { "kind": "cached" },
  "sync": "fence"
}|}

let test_json_machine_end_to_end () =
  match S.of_string fence_json with
  | Error e -> Alcotest.failf "fence spec rejected: %s" e
  | Ok spec ->
    check "a cached fence machine is not SC" false
      (S.sequentially_consistent spec);
    check "a cached fence machine is weakly ordered" true
      (S.weakly_ordered_drf0 spec);
    let machine = S.build spec in
    let dekker =
      List.find (fun (t : L.t) -> t.L.name = "dekker-sync") L.all
    in
    let report = Wo_litmus.Runner.run ~runs:30 machine dekker in
    check "fence machine appears SC on a DRF0 test" true
      (Wo_litmus.Runner.appears_sc report);
    (* and it is a real simulation, not the ideal interpreter *)
    check "simulated cycles accumulate" true (report.Wo_litmus.Runner.total_cycles > 0)

let test_grid_names () =
  let base = P.wo_new_spec in
  let specs =
    S.grid
      ~fabrics:[ bus; Wo_machines.Memsys.Net_fixed { latency = 5 } ]
      ~syncs:[ S.Sync_reserve_bit; S.Sync_sc ]
      base
  in
  check_int "2 fabrics x 2 syncs" 4 (List.length specs);
  let names = List.map (fun (s : S.t) -> s.S.name) specs in
  List.iter
    (fun n ->
      check (n ^ " listed") true (List.mem n names))
    [
      "wo-new/bus2+reserve-bit";
      "wo-new/bus2+sc";
      "wo-new/fix5+reserve-bit";
      "wo-new/fix5+sc";
    ];
  (* every grid point builds and runs *)
  List.iter
    (fun (s : S.t) ->
      let m = S.build s in
      let t = List.find (fun (t : L.t) -> t.L.name = "message-passing") L.all in
      ignore (M.run m ~seed:1 t.L.program))
    specs;
  (* the model axis: sc keeps the historical name, relaxed points get
     an @<model> suffix and fall back to uncached memory *)
  let model_specs =
    S.grid
      ~models:[ S.Model_sc; S.Model_tso { depth = 8; drain_delay = 6 } ]
      base
  in
  check_int "2 models" 2 (List.length model_specs);
  let names = List.map (fun (s : S.t) -> s.S.name) model_specs in
  check "sc point keeps the historical name" true
    (List.mem "wo-new/net4j6+reserve-bit" names);
  check "relaxed point gets the model suffix" true
    (List.mem "wo-new/net4j6+reserve-bit@tso" names);
  List.iter
    (fun (s : S.t) ->
      let m = S.build s in
      let t = List.find (fun (t : L.t) -> t.L.name = "figure1") L.all in
      ignore (M.run m ~seed:1 t.L.program))
    model_specs

let tests =
  [
    Alcotest.test_case "spec-built presets are byte-identical to frozen configs"
      `Slow test_spec_builds_byte_identical;
    Alcotest.test_case "every preset has a spec with matching flags" `Quick
      test_specs_cover_presets;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "preset specs round-trip through JSON" `Quick
      test_preset_specs_roundtrip;
    Alcotest.test_case "JSON defaults" `Quick test_json_defaults;
    Alcotest.test_case "JSON model field" `Quick test_json_model_field;
    Alcotest.test_case "bad JSON specs are rejected" `Quick
      test_json_rejects_bad_spec;
    Alcotest.test_case "out-of-range JSON knobs are rejected" `Quick
      test_json_rejects_out_of_range;
    Alcotest.test_case "JSON-defined machine runs end to end" `Quick
      test_json_machine_end_to_end;
    Alcotest.test_case "spec grids" `Quick test_grid_names;
  ]
