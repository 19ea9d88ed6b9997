open Cmdliner

type args = {
  network : Setup.network;
  seed : int;
  backups : int;
  double_sample : int option;
  scenarios : int;
  detector : [ `Oracle | `Heartbeat ];
  loss : float option;
  gray : float;
  horizon : float option;
  show_setup : bool;
}

let defaults =
  {
    network = Setup.Torus8;
    seed = 42;
    backups = 1;
    double_sample = None;
    scenarios = 16;
    detector = `Oracle;
    loss = None;
    gray = 0.0;
    horizon = None;
    show_setup = true;
  }

type param =
  | Network
  | Seed
  | Backups
  | Double_sample
  | Scenarios
  | Detector
  | Loss
  | Gray
  | Horizon

type t = {
  name : string;
  doc : string;
  params : param list;
  run : args -> Report.t list;
}

(* ---------- command-line options ---------- *)

(* [Setup.names] is the single source of truth for [--network]
   spellings; "torus"/"mesh" stay as aliases for the paper's 8x8
   networks.  An unknown name is a usage error whose message lists every
   accepted spelling. *)
let network_conv =
  let accepted = "torus|mesh|" ^ String.concat "|" (List.map fst Setup.names) in
  let parse = function
    | "torus" -> Ok Setup.Torus8
    | "mesh" -> Ok Setup.Mesh8
    | s -> (
      match Setup.of_name s with
      | Some n -> Ok n
      | None ->
        Error (`Msg (Printf.sprintf "unknown network %S (%s)" s accepted)))
  in
  let print ppf n =
    Format.pp_print_string ppf
      (match n with
      | Setup.Torus8 -> "torus"
      | Setup.Mesh8 -> "mesh"
      | n -> fst (List.find (fun (_, n') -> n' = n) Setup.names))
  in
  Arg.conv (parse, print)

(* Counts index arrays and size samples: a negative one is a usage error
   here rather than an exception (or a sampling loop that never ends)
   deep inside a sweep. *)
let count_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be >= 0 (got %d)" n))
    | None -> Error (`Msg (Printf.sprintf "invalid count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let detector_conv =
  let parse = function
    | "oracle" -> Ok `Oracle
    | "heartbeat" -> Ok `Heartbeat
    | s -> Error (`Msg (Printf.sprintf "unknown detector %S (oracle|heartbeat)" s))
  in
  let print ppf d =
    Format.pp_print_string ppf
      (match d with `Oracle -> "oracle" | `Heartbeat -> "heartbeat")
  in
  Arg.conv (parse, print)

let rate_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be in [0, 1]" what))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let horizon_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 && Float.is_finite v -> Ok v
    | Some _ -> Error (`Msg "--horizon must be > 0 seconds")
    | None -> Error (`Msg (Printf.sprintf "invalid horizon %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let network_arg =
  Arg.(
    value
    & opt network_conv defaults.network
    & info [ "network"; "n" ] ~docv:"NET"
        ~doc:
          "Network: torus or mesh (8x8), torus4 or mesh4 (reduced 4x4), \
           torus16 or mesh16 (large-network scaling tier), torus64 or \
           mesh64 (4096-node flat-state benchmark ladder).")

let seed_arg =
  Arg.(value & opt int defaults.seed & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let backups_arg =
  Arg.(
    value
    & opt count_conv defaults.backups
    & info [ "backups"; "b" ] ~docv:"N" ~doc:"Backup channels per connection.")

let double_sample_arg =
  Arg.(
    value
    & opt (some count_conv) defaults.double_sample
    & info [ "double-sample" ] ~docv:"N"
        ~doc:"Sample N double-node scenarios instead of all pairs.")

let scenarios_arg =
  Arg.(
    value
    & opt count_conv defaults.scenarios
    & info [ "scenarios" ] ~docv:"N" ~doc:"Failure scenarios to simulate.")

let detector_arg =
  Arg.(
    value
    & opt detector_conv defaults.detector
    & info [ "detector" ] ~docv:"DET"
        ~doc:"Failure detector: oracle or heartbeat.")

let loss_arg =
  Arg.(
    value
    & opt (some (rate_conv "loss rate")) defaults.loss
    & info [ "loss" ] ~docv:"P"
        ~doc:"Run a single impairment level with this loss rate instead of \
              the default ladder.")

let gray_arg =
  Arg.(
    value
    & opt (rate_conv "gray fraction") defaults.gray
    & info [ "gray" ] ~docv:"F"
        ~doc:"Gray-failure link fraction for the single level (with --loss).")

let horizon_arg =
  Arg.(
    value
    & opt (some horizon_conv) defaults.horizon
    & info [ "horizon" ] ~docv:"SEC" ~doc:"Simulated time past each fault.")

let setter = function
  | Network -> Term.(const (fun network a -> { a with network }) $ network_arg)
  | Seed -> Term.(const (fun seed a -> { a with seed }) $ seed_arg)
  | Backups -> Term.(const (fun backups a -> { a with backups }) $ backups_arg)
  | Double_sample ->
    Term.(
      const (fun double_sample a -> { a with double_sample })
      $ double_sample_arg)
  | Scenarios ->
    Term.(const (fun scenarios a -> { a with scenarios }) $ scenarios_arg)
  | Detector ->
    Term.(const (fun detector a -> { a with detector }) $ detector_arg)
  | Loss -> Term.(const (fun loss a -> { a with loss }) $ loss_arg)
  | Gray -> Term.(const (fun gray a -> { a with gray }) $ gray_arg)
  | Horizon -> Term.(const (fun horizon a -> { a with horizon }) $ horizon_arg)

let term e =
  List.fold_left
    (fun acc p -> Term.(const (fun a set -> set a) $ acc $ setter p))
    (Term.const defaults) e.params

(* ---------- the experiments ---------- *)

let fig9 =
  {
    name = "fig9";
    doc = "Figure 9: spare bandwidth vs network load.";
    params = [ Network; Backups; Seed ];
    run =
      (fun a ->
        [
          Spare_bw.report a.network ~backups:a.backups
            (Spare_bw.run ~seed:a.seed a.network ~backups:a.backups);
        ]);
  }

let table1 =
  {
    name = "table1";
    doc = "Table 1: R_fast with uniform multiplexing degrees.";
    params = [ Network; Backups; Seed; Double_sample ];
    run =
      (fun a ->
        [
          Rfast.table_same_degree ~seed:a.seed ?double_sample:a.double_sample
            a.network ~backups:a.backups;
        ]);
  }

let table2 =
  {
    name = "table2";
    doc = "Table 2: R_fast with mixed multiplexing degrees.";
    params = [ Network; Backups; Seed; Double_sample ];
    run =
      (fun a ->
        [
          Rfast.table_mixed_degrees ~seed:a.seed ?double_sample:a.double_sample
            a.network ~backups:a.backups;
        ]);
  }

let table3 =
  {
    name = "table3";
    doc = "Table 3: R_fast with brute-force multiplexing.";
    params = [ Network; Seed; Double_sample ];
    run =
      (fun a ->
        [
          Rfast.table_brute_force ~seed:a.seed ?double_sample:a.double_sample
            a.network;
        ]);
  }

let delay =
  {
    name = "delay";
    doc = "Section 5.3: measured recovery delay vs the analytic bound.";
    params = [ Network; Backups; Seed; Scenarios ];
    run =
      (fun a ->
        let est =
          Setup.build ~seed:a.seed ~backups:a.backups ~mux_degree:3 a.network
        in
        if a.show_setup then
          Printf.printf
            "established %d connections (rejected %d), spare %.2f%%\n\n"
            est.Setup.established est.Setup.rejected est.Setup.spare;
        [
          Recovery_delay.report
            [
              Recovery_delay.measure ~seed:a.seed ~scenario_count:a.scenarios
                est.Setup.ns;
            ];
        ]);
  }

let schemes =
  {
    name = "schemes";
    doc = "Section 4.2: compare channel-switching Schemes 1, 2 and 3.";
    params = [ Network; Seed; Scenarios ];
    run =
      (fun a ->
        let est = Setup.build ~seed:a.seed ~backups:1 ~mux_degree:3 a.network in
        let compared =
          Recovery_delay.compare_schemes ~seed:a.seed
            ~scenario_count:a.scenarios est.Setup.ns
        in
        [ compared; Ablations.scheme_coverage ~seed:a.seed est.Setup.ns ]);
  }

let coverage =
  {
    name = "coverage";
    doc = "Section 4.2: channel-switching scheme coverage.";
    params = [ Network; Seed ];
    run =
      (fun a ->
        let est = Setup.build ~seed:a.seed ~backups:1 ~mux_degree:3 a.network in
        [ Ablations.scheme_coverage ~seed:a.seed est.Setup.ns ]);
  }

let priority =
  {
    name = "priority";
    doc = "Section 4.3: priority-based activation under contention.";
    params = [ Network; Seed ];
    run = (fun a -> [ Ablations.priority_activation ~seed:a.seed a.network ]);
  }

let hotspot =
  {
    name = "hotspot";
    doc = "Section 7.1/7.4: hot-spot traffic, proposed vs brute-force.";
    params = [ Network; Seed ];
    run = (fun a -> [ Ablations.inhomogeneous ~seed:a.seed a.network ]);
  }

let routing =
  {
    name = "routing";
    doc = "Extension: spare-increment-minimising backup routing [HAN97b].";
    params = [ Network; Seed ];
    run = (fun a -> [ Ablations.backup_routing ~seed:a.seed a.network ]);
  }

let fig8 =
  {
    name = "fig8";
    doc = "Figure 8: message loss during failure recovery (data plane).";
    params = [ Network; Seed ];
    run =
      (fun a ->
        [ Message_loss.report (Message_loss.run ~seed:a.seed a.network) ]);
  }

let sensitivity =
  {
    name = "sensitivity";
    doc = "Section 7.1: traffic/topology sensitivity + S_max audit.";
    params = [ Network; Seed ];
    run =
      (fun a ->
        let traffic = Sensitivity.traffic ~seed:a.seed a.network in
        let topology = Sensitivity.topology ~seed:a.seed () in
        let est = Setup.build ~seed:a.seed ~backups:1 ~mux_degree:3 a.network in
        [
          traffic;
          topology;
          Sensitivity.s_max_audit est.Setup.ns Rcc.Transport.default_params;
        ]);
  }

let baseline =
  {
    name = "baseline";
    doc = "Section 8: BCP vs reactive re-establishment [BAN93].";
    params = [ Network; Seed; Double_sample ];
    run =
      (fun a ->
        let double_sample = Option.value ~default:300 a.double_sample in
        [
          Baselines.report a.network
            (Baselines.compare ~seed:a.seed ~double_sample a.network);
        ]);
  }

let multi =
  {
    name = "multi";
    doc =
      "Extension: R_fast under k simultaneous link failures. With --metrics \
       or --trace-out the sweep switches to the event-driven simulator \
       (single configuration, reduced k ladder) so burst-failure traces \
       exist for auditing.";
    params = [ Network; Seed ];
    run = (fun a -> [ Multi_failure.sweep ~seed:a.seed a.network ]);
  }

let markov =
  {
    name = "markov";
    doc = "Figure 3: Markov reliability models vs the combinatorial P_r.";
    params = [];
    run =
      (fun _ ->
        [
          Reliability_cmp.report
            (Reliability_cmp.compute ~hops:[ 1; 2; 4; 7; 10; 14 ] ());
        ]);
  }

let chaos_levels ~loss ~gray =
  Option.map
    (fun p -> [ Chaos.level p ~dup:(p /. 2.0) ~jitter:5e-4 ~gray_frac:gray ])
    loss

let chaos =
  {
    name = "chaos";
    doc =
      "Chaos sweep: R_fast, disruption time and RCC overhead vs \
       control-plane impairment (loss/dup/jitter/gray links), with oracle or \
       heartbeat failure detection. --metrics and --trace-out export the \
       typed telemetry of every simulated scenario.";
    params = [ Network; Seed; Scenarios; Detector; Loss; Gray; Horizon ];
    run =
      (fun a ->
        [
          Chaos.sweep ~seed:a.seed ~scenario_count:a.scenarios
            ?horizon:a.horizon ~detector:a.detector
            ?levels:(chaos_levels ~loss:a.loss ~gray:a.gray)
            a.network;
        ]);
  }

let all =
  [
    fig9;
    table1;
    table2;
    table3;
    delay;
    schemes;
    priority;
    hotspot;
    routing;
    fig8;
    sensitivity;
    baseline;
    multi;
    markov;
    chaos;
  ]

(* ---------- suites ---------- *)

type step = string * t * args

let full =
  let torus = defaults and mesh = { defaults with network = Setup.Mesh8 } in
  (* 300 of the 2016 double-node pairs keep the suite minutes-scale. *)
  let sampled a = { a with double_sample = Some 300 } in
  let twice a = { a with backups = 2 } in
  [
    ("FIGURE 9 (a): spare bandwidth vs load, single backup, 8x8 torus", fig9, torus);
    ("FIGURE 9 (b): spare bandwidth vs load, double backups, 8x8 torus", fig9, twice torus);
    ("FIGURE 9 (c): spare bandwidth vs load, single backup, 8x8 mesh", fig9, mesh);
    ("TABLE 1 (a): R_fast, same mux degrees, single backup, 8x8 torus", table1, sampled torus);
    ("TABLE 1 (b): R_fast, same mux degrees, double backups, 8x8 torus", table1, sampled (twice torus));
    ("TABLE 1 (c): R_fast, same mux degrees, single backup, 8x8 mesh", table1, sampled mesh);
    ("TABLE 2 (a): R_fast, mixed mux degrees, single backup, 8x8 torus", table2, sampled torus);
    ("TABLE 2 (b): R_fast, mixed mux degrees, double backups, 8x8 torus", table2, sampled (twice torus));
    ("TABLE 2 (c): R_fast, mixed mux degrees, single backup, 8x8 mesh", table2, sampled mesh);
    ("TABLE 3 (a): R_fast, brute-force multiplexing, 8x8 torus", table3, sampled torus);
    ("TABLE 3 (b): R_fast, brute-force multiplexing, 8x8 mesh", table3, sampled mesh);
    ( "SECTION 5.3: recovery delay vs bound (event-driven BCP, 8x8 torus)",
      delay,
      { torus with scenarios = 12 } );
    ("SECTION 4.2: channel-switching schemes 1/2/3", schemes, { torus with scenarios = 6 });
    ("SECTION 4.3: priority-based activation", priority, torus);
    ("SECTION 7.1/7.4: hot-spot (inhomogeneous) traffic", hotspot, torus);
    ("FIGURE 8: message loss during failure recovery (data plane)", fig8, torus);
    ("EXTENSION: spare-aware backup routing [HAN97b]", routing, torus);
    ("EXTENSION: R_fast under k simultaneous link failures", multi, torus);
    ("SECTION 8: BCP vs reactive re-establishment [BAN93]", baseline, sampled torus);
    ("SECTION 7.1: sensitivity to traffic and topology + S_max audit", sensitivity, torus);
    ("FIGURE 3: Markov reliability models vs combinatorial P_r", markov, torus);
  ]

let reduced =
  let torus = { defaults with network = Setup.Torus4 } in
  let mesh = { defaults with network = Setup.Mesh4 } in
  [
    ("4x4 FIGURE 9: spare bandwidth vs load, single backup, 4x4 torus", fig9, torus);
    ("4x4 TABLE 1: R_fast, same mux degrees, single backup, 4x4 torus", table1, torus);
    ("4x4 TABLE 2: R_fast, mixed mux degrees, single backup, 4x4 mesh", table2, mesh);
    ("4x4 TABLE 3: R_fast, brute-force multiplexing, 4x4 torus", table3, torus);
    ( "4x4 SECTION 5.3: recovery delay vs bound (event-driven BCP)",
      delay,
      { torus with scenarios = 8; show_setup = false } );
    ("4x4 SECTION 4.2: channel-switching scheme coverage", coverage, torus);
    ("4x4 SECTION 7.1/7.4: hot-spot (inhomogeneous) traffic", hotspot, torus);
    ("4x4 FIGURE 8: message loss during failure recovery", fig8, torus);
    ("4x4 EXTENSION: R_fast under k simultaneous link failures", multi, torus);
    ("4x4 CHAOS: impairment sweep, oracle detector", chaos, { torus with scenarios = 4 });
    ("FIGURE 3: Markov reliability models vs combinatorial P_r", markov, torus);
  ]

let run_step ?seed ?double_sample (_, e, a) =
  let a = match seed with Some seed -> { a with seed } | None -> a in
  let a =
    match double_sample with
    | Some _ when List.mem Double_sample e.params -> { a with double_sample }
    | _ -> a
  in
  e.run a
