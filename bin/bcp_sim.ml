(* bcp_sim: regenerate every table and figure of Han & Shin, SIGCOMM '97,
   plus the ablations documented in DESIGN.md. *)

open Cmdliner
open Eval.Experiments

let csv_arg =
  Arg.(
    value & flag
    & info [ "csv" ] ~doc:"Emit the table as CSV instead of aligned text.")

(* [--jobs 0] and negative values are rejected at parse time, so they
   surface as a usage error (exit code 2), never a raw exception. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
    | Some n when n < 1 ->
      Error (`Msg (Printf.sprintf "--jobs must be >= 1 (got %d)" n))
    | Some n -> Ok n
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value & opt jobs_conv 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run scenario sweeps on N domains. Reports are byte-identical \
           for every N.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write every emitted table to FILE as JSON.")

let prof_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prof-out" ] ~docv:"FILE"
        ~doc:
          "Profile the run with the engine span profiler and write the \
           span/counter/GC report to FILE (schema bcp-prof/v1), plus a \
           hot-span table on stderr. Chrome traces written by --trace-out \
           then carry the engine spans on the same timeline. Profiling \
           never perturbs simulation results.")

let prof_setup = function None -> () | Some _ -> Sim.Prof.enable ()

let prof_finish = function
  | None -> ()
  | Some path ->
    let report = Sim.Prof.report () in
    Sim.Prof.print_top Format.err_formatter;
    Eval.Json.write_file path (Eval.Telemetry.prof_to_json report);
    Printf.printf "wrote profile to %s\n" path

(* Output context shared by every subcommand: rendering mode, optional
   JSON sink, and the domain-pool size.  [extra] holds additional
   top-level JSON sections (e.g. telemetry) — empty for every command
   that predates it, so their JSON output is unchanged. *)
type ctx = {
  csv : bool;
  json : string option;
  collected : Eval.Report.t list ref;
  extra : (string * Eval.Json.t) list ref;
  prof_out : string option;
}

let ctx_term =
  Term.(
    const (fun csv json jobs prof_out ->
        Sim.Pool.set_jobs jobs;
        prof_setup prof_out;
        { csv; json; collected = ref []; extra = ref []; prof_out })
    $ csv_arg $ json_arg $ jobs_arg $ prof_out_arg)

let emit ctx report =
  ctx.collected := report :: !(ctx.collected);
  if ctx.csv then print_string (Eval.Report.to_csv report)
  else Eval.Report.print report

let write_json ctx =
  match ctx.json with
  | None -> ()
  | Some path ->
    Eval.Json.write_file path
      (Eval.Json.Obj
         ([
            ("schema", Eval.Json.String "bcp-report/v1");
            ("jobs", Eval.Json.Int (Sim.Pool.current_jobs ()));
            ( "reports",
              Eval.Json.List
                (List.rev_map Eval.Report.to_json !(ctx.collected)) );
          ]
         @ List.rev !(ctx.extra)))

(* Run a subcommand body, then flush the JSON sink and the profile
   report if requested. *)
let finishing ctx body =
  body ();
  write_json ctx;
  prof_finish ctx.prof_out

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect the telemetry metrics registry and the per-recovery \
           phase breakdown (detect/report/activate/switch) and emit them \
           as extra tables (and JSON sections with --json).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the typed event log to FILE: JSONL when FILE ends in \
           .jsonl, Chrome trace_event JSON (chrome://tracing, Perfetto) \
           otherwise.")

(* Event logs go to FILE as JSONL or a Chrome trace, by file suffix.
   When the profiler is on, Chrome traces also carry the engine spans
   recorded so far, merged onto the protocol timeline. *)
let write_trace path events =
  (if Filename.check_suffix path ".jsonl" then
     Eval.Json.write_text path (Eval.Telemetry.events_to_jsonl events)
   else
     let prof =
       if Sim.Prof.enabled () then Some (Sim.Prof.report ()) else None
     in
     Eval.Json.write_file path (Eval.Telemetry.events_to_chrome ?prof events));
  Printf.printf "wrote %d events to %s\n" (List.length events) path

(* Emit the phase-breakdown and metrics tables (and their JSON sections)
   from a merged metrics snapshot — shared by every telemetry-capable
   subcommand. *)
let emit_metrics ctx metrics =
  let phases = Eval.Recovery_delay.phases_of_snapshot metrics in
  emit ctx (Eval.Recovery_delay.phases_report phases);
  emit ctx (Eval.Telemetry.metrics_report metrics);
  ctx.extra :=
    ("metrics", Eval.Telemetry.metrics_to_json metrics)
    :: ("phases", Eval.Recovery_delay.phases_to_json phases)
    :: !(ctx.extra)

(* ---------- the experiment registry as subcommands ---------- *)

(* The instrumented path of recovery, multi and chaos: [sweep ~mux_sink]
   returns the report, the merged metrics and the sweep's event stream.
   Establishment-time multiplexing updates land at time 0.0 under the
   pseudo-scenario -1, ahead of the sweep's events. *)
let run_telemetry ctx ~use_metrics ~trace_out sweep =
  let setup_events = ref [] in
  let mux_sink ev = setup_events := (-1, 0.0, ev) :: !setup_events in
  let report, metrics, events = sweep ~mux_sink in
  emit ctx report;
  if use_metrics then emit_metrics ctx metrics;
  Option.iter
    (fun path -> write_trace path (List.rev !setup_events @ events))
    trace_out

let recovery_sweep a ~mux_sink =
  let est =
    Eval.Setup.build ~seed:a.seed ~backups:a.backups ~mux_degree:3 ~mux_sink
      a.network
  in
  Printf.printf "established %d connections (rejected %d), spare %.2f%%\n\n"
    est.Eval.Setup.established est.Eval.Setup.rejected est.Eval.Setup.spare;
  let stats, tele =
    Eval.Recovery_delay.measure_telemetry ~seed:a.seed
      ~scenario_count:a.scenarios est.Eval.Setup.ns
  in
  ( Eval.Recovery_delay.report [ stats ],
    tele.Eval.Recovery_delay.metrics,
    tele.Eval.Recovery_delay.events )

let multi_sweep a ~mux_sink =
  let report, tele, _ns =
    Eval.Multi_failure.sweep_telemetry ~seed:a.seed ~mux_sink a.network
  in
  (report, tele.Eval.Multi_failure.metrics, tele.Eval.Multi_failure.events)

let chaos_sweep a ~mux_sink =
  let report, tele, _ns =
    Eval.Chaos.sweep_telemetry ~seed:a.seed ~scenario_count:a.scenarios
      ?horizon:a.horizon ~detector:a.detector
      ?levels:(chaos_levels ~loss:a.loss ~gray:a.gray)
      ~mux_sink a.network
  in
  (report, tele.Eval.Chaos.metrics, tele.Eval.Chaos.events)

(* One subcommand per registry entry.  With [telemetry], --metrics and
   --trace-out switch the entry to its instrumented path. *)
let experiment_cmd ?name ?doc ?telemetry e =
  let info =
    Cmd.info (Option.value name ~default:e.name)
      ~doc:(Option.value doc ~default:e.doc)
  in
  let run ctx a = finishing ctx (fun () -> List.iter (emit ctx) (e.run a)) in
  match telemetry with
  | None -> Cmd.v info Term.(const run $ ctx_term $ term e)
  | Some sweep ->
    Cmd.v info
      Term.(
        const (fun ctx a use_metrics trace_out ->
            if use_metrics || trace_out <> None then
              finishing ctx (fun () ->
                  run_telemetry ctx ~use_metrics ~trace_out (sweep a))
            else run ctx a)
        $ ctx_term $ term e $ metrics_arg $ trace_out_arg)

let experiment_cmds =
  List.concat_map
    (fun e ->
      match e.name with
      | "delay" ->
        [
          experiment_cmd e;
          experiment_cmd ~name:"recovery" ~telemetry:recovery_sweep
            ~doc:
              "Recovery sweep with typed telemetry: phase breakdown \
               (detect/report/activate/switch), metrics registry, and JSONL \
               / Chrome trace export. Without --metrics or --trace-out this \
               is identical to $(b,delay)."
            e;
        ]
      | "multi" -> [ experiment_cmd ~telemetry:multi_sweep e ]
      | "chaos" -> [ experiment_cmd ~telemetry:chaos_sweep e ]
      | _ -> [ experiment_cmd e ])
    all

let all_cmd =
  let doc = "Run the complete evaluation (every table and figure)." in
  Cmd.v
    (Cmd.info "all" ~doc)
    Term.(
      const (fun ctx seed double_sample ->
          finishing ctx (fun () ->
              List.iter
                (fun step ->
                  List.iter (emit ctx) (run_step ~seed ?double_sample step))
                full))
      $ ctx_term $ seed_arg $ double_sample_arg)

(* ---------- audit ---------- *)

let filter_conv =
  let parse s =
    match String.index_opt s '=' with
    | None ->
      Error (`Msg "expected a filter of the form conn=ID, link=ID or link=A-B")
    | Some i -> (
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match (key, int_of_string_opt v) with
      | "conn", Some id -> Ok (`Conn id)
      | "link", Some id -> Ok (`Link id)
      | "link", None -> (
        match String.split_on_char '-' v with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> Ok (`Link_pair (a, b))
          | _ -> Error (`Msg (Printf.sprintf "invalid link endpoints %S" v)))
        | _ -> Error (`Msg (Printf.sprintf "invalid link filter %S" v)))
      | "conn", None -> Error (`Msg (Printf.sprintf "invalid connection id %S" v))
      | _ -> Error (`Msg (Printf.sprintf "unknown filter key %S" key)))
  in
  let print ppf = function
    | `Conn id -> Format.fprintf ppf "conn=%d" id
    | `Link id -> Format.fprintf ppf "link=%d" id
    | `Link_pair (a, b) -> Format.fprintf ppf "link=%d-%d" a b
  in
  Arg.conv (parse, print)

let filter_arg =
  Arg.(
    value
    & opt_all filter_conv []
    & info [ "filter" ] ~docv:"F"
        ~doc:
          "Restrict the report to one connection (conn=ID) or link \
           (link=ID, or link=A-B for the directed links between nodes A \
           and B of --network). Repeatable; any match keeps an entry.")

let trace_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Replay this trace file (JSONL or Chrome trace_event, as \
           written by --trace-out) instead of running a live sweep.")

let audit_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the audit result to FILE (schema bcp-audit/v1).")

(* Resolve link=A-B against the topology: both directed links count. *)
let resolve_filters network filters =
  let topo = Eval.Setup.topology_of network in
  List.concat_map
    (function
      | `Conn id -> [ Eval.Audit.Conn id ]
      | `Link id -> [ Eval.Audit.Link id ]
      | `Link_pair (a, b) -> (
        (* Out-of-range endpoints are "no such link", not a crash. *)
        let find ~src ~dst =
          try Net.Topology.find_link topo ~src ~dst
          with Invalid_argument _ -> None
        in
        match (find ~src:a ~dst:b, find ~src:b ~dst:a) with
        | None, None ->
          Printf.eprintf "audit: no link between nodes %d and %d\n" a b;
          exit 2
        | l1, l2 ->
          List.filter_map
            (Option.map (fun l -> Eval.Audit.Link l))
            [ l1; l2 ]))
    filters

let run_audit network seed scenarios detector loss gray trace_file filters
    json_out prof_out jobs =
  Sim.Pool.set_jobs jobs;
  prof_setup prof_out;
  let filters = resolve_filters network filters in
  let source, events, context =
    match trace_file with
    | Some path -> (
      match Eval.Audit.load_trace path with
      | Error e ->
        Printf.eprintf "audit: cannot load %s: %s\n" path e;
        exit 2
      | Ok [] ->
        (* An empty stream "audits" clean vacuously — call it out as a
           malformed input instead of printing 0 violations. *)
        Printf.eprintf "audit: %s contains no replayable events\n" path;
        exit 2
      | Ok evs -> (path, evs, None))
    | None ->
      (* Live mode: a seeded chaos sweep (single level — clean unless
         --loss is given) with the full network context for the
         link-budget checks. *)
      let setup_events = ref [] in
      let mux_sink ev = setup_events := (-1, 0.0, ev) :: !setup_events in
      let levels =
        match chaos_levels ~loss ~gray with
        | None -> Some [ Eval.Chaos.level 0.0 ]
        | levels -> levels
      in
      let _rep, tele, ns =
        Eval.Chaos.sweep_telemetry ~seed ~scenario_count:scenarios ~detector
          ?levels ~mux_sink network
      in
      ( Printf.sprintf "live:%s seed=%d" (Eval.Setup.network_label network) seed,
        List.rev !setup_events @ tele.Eval.Chaos.events,
        Some (Eval.Audit.context_of_netstate ns) )
  in
  let result =
    Eval.Audit.apply_filters filters (Eval.Audit.replay ?context events)
  in
  Eval.Audit.print result;
  (match json_out with
  | None -> ()
  | Some path ->
    Eval.Json.write_file path (Eval.Audit.to_json ~source result);
    Printf.printf "wrote audit to %s\n" path);
  prof_finish prof_out;
  if result.Eval.Audit.total_violations > 0 then exit 1

let audit_cmd =
  let doc =
    "Protocol auditor: replay a recorded telemetry trace (--trace FILE) or \
     run a seeded live sweep through the online invariant monitor, print \
     the violation report and per-connection recovery timelines, and exit \
     1 if any invariant was violated. --filter conn=ID / link=A-B \
     restricts the report; --json writes schema bcp-audit/v1."
  in
  Cmd.v
    (Cmd.info "audit" ~doc)
    Term.(
      const (fun n s sc d l g tr f j p jobs ->
          run_audit n s sc d l g tr f j p jobs)
      $ network_arg $ seed_arg $ scenarios_arg $ detector_arg $ loss_arg
      $ gray_arg $ trace_in_arg $ filter_arg $ audit_json_arg $ prof_out_arg
      $ jobs_arg)

(* ---------- swarm ---------- *)

let positive_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s must be >= 1 (got %d)" what n))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let budget_arg =
  Arg.(
    value
    & opt (positive_int_conv "--budget") 64
    & info [ "budget" ] ~docv:"N" ~doc:"Number of scenarios to execute.")

let wall_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 -> Ok v
    | Some _ -> Error (`Msg "--wall must be > 0 seconds")
    | None -> Error (`Msg (Printf.sprintf "invalid wall-clock budget %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let wall_arg =
  Arg.(
    value
    & opt (some wall_conv) None
    & info [ "wall" ] ~docv:"SECS"
        ~doc:
          "Stop starting new scenario batches after SECS wall-clock seconds \
           (an additional cap on --budget; the executed count then depends \
           on machine speed, the per-scenario results do not).")

let strategy_conv =
  let parse s =
    match Eval.Swarm.strategy_of_string s with
    | Some st -> Ok st
    | None ->
      Error (`Msg (Printf.sprintf "unknown strategy %S (coverage|random)" s))
  in
  Arg.conv
    ( parse,
      fun ppf st ->
        Format.pp_print_string ppf (Eval.Swarm.strategy_to_string st) )

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Eval.Swarm.Coverage
    & info [ "strategy" ] ~docv:"S"
        ~doc:
          "coverage (guided plan mutation) or random (equal-budget \
           pure-random chaos baseline).")

let max_faults_arg =
  Arg.(
    value
    & opt (positive_int_conv "--max-faults") 3
    & info [ "max-faults" ] ~docv:"N"
        ~doc:"Maximum staged component faults per plan.")

let artifact_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "artifact-dir" ] ~docv:"DIR"
        ~doc:
          "Write one replayable bcp-audit/v1 artifact per violation into \
           DIR (created if missing).")

let swarm_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the swarm summary to FILE (schema bcp-swarm/v1).")

let run_swarm network seed budget wall strategy detector max_faults horizon
    use_metrics trace_out json_out artifact_dir prof_out jobs =
  Sim.Pool.set_jobs jobs;
  prof_setup prof_out;
  let telemetry = use_metrics || trace_out <> None in
  (* Establishment-time multiplexing updates land at time 0.0 under the
     pseudo-scenario -1, ahead of the per-scenario swarm streams. *)
  let setup_events = ref [] in
  let mux_sink ev = setup_events := (-1, 0.0, ev) :: !setup_events in
  let est =
    if telemetry then Eval.Setup.build ~mux_sink network
    else Eval.Setup.build network
  in
  let deadline =
    Option.map
      (fun secs ->
        let t0 = Unix.gettimeofday () in
        fun () -> Unix.gettimeofday () -. t0 >= secs)
      wall
  in
  let network_label = Eval.Setup.network_label network in
  let report, tele =
    if telemetry then begin
      let report, tele =
        Eval.Swarm.run_telemetry ~seed ~budget ~strategy ~detector ~max_faults
          ?horizon ?deadline ~network:network_label est.Eval.Setup.ns
      in
      (report, Some tele)
    end
    else
      ( Eval.Swarm.run ~seed ~budget ~strategy ~detector ~max_faults ?horizon
          ?deadline ~network:network_label est.Eval.Setup.ns,
        None )
  in
  Eval.Swarm.print report;
  (match tele with
  | None -> ()
  | Some t ->
    if use_metrics then begin
      let phases =
        Eval.Recovery_delay.phases_of_snapshot t.Eval.Swarm.metrics
      in
      Eval.Report.print (Eval.Recovery_delay.phases_report phases);
      Eval.Report.print (Eval.Telemetry.metrics_report t.Eval.Swarm.metrics)
    end;
    match trace_out with
    | None -> ()
    | Some path ->
      write_trace path (List.rev !setup_events @ t.Eval.Swarm.events));
  (match json_out with
  | None -> ()
  | Some path ->
    Eval.Json.write_file path (Eval.Swarm.report_to_json report);
    Printf.printf "wrote swarm summary to %s\n" path);
  (match artifact_dir with
  | None -> ()
  | Some dir when report.Eval.Swarm.violations <> [] ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun v ->
        let path =
          Filename.concat dir
            (Printf.sprintf "violation-%04d.json" v.Eval.Swarm.scenario)
        in
        Eval.Json.write_file path v.Eval.Swarm.artifact;
        Printf.printf "wrote artifact %s\n" path)
      report.Eval.Swarm.violations
  | Some _ -> ());
  prof_finish prof_out;
  if report.Eval.Swarm.violations <> [] then exit 1

let swarm_cmd =
  let doc =
    "Adversarial deterministic-simulation swarm: coverage-guided batches of \
     combinatorial fault plans (timed multi-failure schedules, link \
     impairments, gray links) with seeded scheduler perturbation, checked \
     by the online invariant monitor. Violating runs are delta-debugged to \
     minimal replayable bcp-audit/v1 artifacts; exit 1 if any violation \
     survived. Summaries (--json, schema bcp-swarm/v1) are byte-identical \
     across runs and --jobs settings, with or without --metrics and \
     --trace-out (which export the telemetry every scenario records for \
     its invariant monitor anyway)."
  in
  Cmd.v
    (Cmd.info "swarm" ~doc)
    Term.(
      const (fun n s b w st d mf h m t j ad p jobs ->
          run_swarm n s b w st d mf h m t j ad p jobs)
      $ network_arg $ seed_arg $ budget_arg $ wall_arg $ strategy_arg
      $ detector_arg $ max_faults_arg $ horizon_arg $ metrics_arg
      $ trace_out_arg $ swarm_json_arg $ artifact_dir_arg $ prof_out_arg
      $ jobs_arg)

(* ---------- churn ---------- *)

let offered_conv =
  let parse s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match float_of_string_opt (String.trim p) with
        | Some v when v > 0.0 && Float.is_finite v -> go (v :: acc) rest
        | _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "invalid offered load %S (expected positive Erlangs/node)" p)))
    in
    match parts with
    | [] | [ "" ] -> Error (`Msg "empty offered-load ladder")
    | parts -> go [] parts
  in
  let print ppf levels =
    Format.pp_print_string ppf
      (String.concat "," (List.map (Printf.sprintf "%g") levels))
  in
  Arg.conv (parse, print)

let offered_arg =
  Arg.(
    value
    & opt offered_conv [ 2.0; 4.0; 6.0 ]
    & info [ "offered" ] ~docv:"E1,E2,..."
        ~doc:
          "Comma-separated offered-load ladder, in Erlangs per node; one \
           independent churn cell per level.")

let events_arg =
  Arg.(
    value
    & opt (positive_int_conv "--events") 20_000
    & info [ "events" ] ~docv:"N"
        ~doc:"Connection-lifecycle events to drive per cell.")

let positive_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 && Float.is_finite v -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be > 0" what))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let holding_arg =
  Arg.(
    value
    & opt (positive_float_conv "--holding") 50.0
    & info [ "holding" ] ~docv:"SEC"
        ~doc:"Mean exponential holding time, sim seconds.")

let churn_bandwidth_arg =
  Arg.(
    value
    & opt (positive_float_conv "--bandwidth") 1.0
    & info [ "bandwidth" ] ~docv:"MBPS" ~doc:"Per-connection bandwidth.")

let fault_every_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0.0 && Float.is_finite v -> Ok v
    | Some _ -> Error (`Msg "--fault-every must be >= 0 (0 disables faults)")
    | None -> Error (`Msg (Printf.sprintf "invalid fault interval %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let fault_every_arg =
  Arg.(
    value
    & opt fault_every_conv 0.0
    & info [ "fault-every" ] ~docv:"SEC"
        ~doc:
          "Run a transient single-link fault episode every SEC sim seconds \
           of churn (0 = no faults).")

let windows_arg =
  Arg.(
    value
    & opt (positive_int_conv "--windows") 8
    & info [ "windows" ] ~docv:"N"
        ~doc:"Time windows per cell in the pressure breakdown.")

let max_blocking_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0.0 && v <= 100.0 -> Ok v
    | Some _ -> Error (`Msg "--max-blocking must be a percentage in [0, 100]")
    | None -> Error (`Msg (Printf.sprintf "invalid blocking bound %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let max_blocking_arg =
  Arg.(
    value
    & opt (some max_blocking_conv) None
    & info [ "max-blocking" ] ~docv:"PCT"
        ~doc:
          "Fail (exit 1) if any cell's blocking probability exceeds PCT \
           percent.")

let churn_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the churn summary to FILE (schema bcp-churn/v1).")

let run_churn network seed events offered holding bandwidth backups fault_every
    horizon windows detector max_blocking use_metrics trace_out json_out
    prof_out jobs =
  Sim.Pool.set_jobs jobs;
  prof_setup prof_out;
  let horizon = Option.value ~default:0.25 horizon in
  let t0 = Unix.gettimeofday () in
  let outcomes, tele =
    if use_metrics || trace_out <> None then begin
      let outcomes, tele =
        Eval.Churn.run_telemetry ~seed ~events ~offered ~mean_holding:holding
          ~bandwidth ~backups ~fault_every ~horizon ~detector ~windows network
      in
      (outcomes, Some tele)
    end
    else
      ( Eval.Churn.run ~seed ~events ~offered ~mean_holding:holding ~bandwidth
          ~backups ~fault_every ~horizon ~detector ~windows network,
        None )
  in
  let wall = Unix.gettimeofday () -. t0 in
  Eval.Report.print
    (Eval.Churn.summary_report
       ~title:
         (Printf.sprintf "Steady-state churn (%s, %s detector)"
            (Eval.Setup.network_label network)
            (match detector with `Oracle -> "oracle" | `Heartbeat -> "heartbeat"))
       outcomes);
  List.iter
    (fun o -> Eval.Report.print (Eval.Churn.windows_report o))
    outcomes;
  (match tele with
  | None -> ()
  | Some t ->
    if use_metrics then begin
      let phases =
        Eval.Recovery_delay.phases_of_snapshot t.Eval.Churn.metrics
      in
      Eval.Report.print (Eval.Recovery_delay.phases_report phases);
      Eval.Report.print (Eval.Telemetry.metrics_report t.Eval.Churn.metrics)
    end;
    (match trace_out with
    | None -> ()
    | Some path -> write_trace path t.Eval.Churn.events));
  (match json_out with
  | None -> ()
  | Some path ->
    Eval.Json.write_file path
      (Eval.Churn.report_to_json ~seed ~events ~fault_every ~horizon ~detector
         ~network outcomes);
    Printf.printf "wrote churn summary to %s\n" path);
  let total_events =
    List.fold_left
      (fun a (o : Eval.Churn.outcome) -> a + o.Eval.Churn.events)
      0 outcomes
  in
  Printf.printf "timing: churn wall %.3f s (%d lifecycle events, %.0f events/s)\n"
    wall total_events
    (float_of_int total_events /. wall);
  prof_finish prof_out;
  let violations = Eval.Churn.total_violations outcomes in
  if violations > 0 then begin
    Printf.eprintf "churn: %d monitor violation(s) during fault episodes\n"
      violations;
    exit 1
  end;
  match max_blocking with
  | Some cap ->
    List.iter
      (fun o ->
        if o.Eval.Churn.blocking > cap then begin
          Printf.eprintf
            "churn: blocking %.2f%% at offered %.1f E/node exceeds \
             --max-blocking %.2f%%\n"
            o.Eval.Churn.blocking o.Eval.Churn.offered cap;
          exit 1
        end)
      outcomes
  | None -> ()

let churn_cmd =
  let doc =
    "Steady-state churn engine: Poisson arrivals with exponential holding \
     times at a ladder of offered loads, streamed through admission and \
     teardown with transient audited fault episodes in between \
     (--fault-every). Reports blocking probability, R_fast under churn, \
     disruption percentiles and mux-table pressure per time window; --json \
     writes schema bcp-churn/v1, byte-identical for every --jobs. Exit 1 \
     on any monitor violation or a --max-blocking breach."
  in
  Cmd.v
    (Cmd.info "churn" ~doc)
    Term.(
      const (fun n s e off h bw b fe hz w d mb m t j p jobs ->
          run_churn n s e off h bw b fe hz w d mb m t j p jobs)
      $ network_arg $ seed_arg $ events_arg $ offered_arg $ holding_arg
      $ churn_bandwidth_arg $ backups_arg $ fault_every_arg $ horizon_arg
      $ windows_arg $ detector_arg $ max_blocking_arg $ metrics_arg
      $ trace_out_arg $ churn_json_arg $ prof_out_arg $ jobs_arg)

let () =
  let doc =
    "Reproduction of 'Fast Restoration of Real-Time Communication Service \
     from Component Failures in Multi-hop Networks' (Han & Shin, SIGCOMM '97)"
  in
  let info = Cmd.info "bcp_sim" ~version:"1.0.0" ~doc in
  (* Usage errors (unknown flags, malformed option values such as
     [--jobs 0]) exit with code 2. *)
  let code =
    Cmd.eval ~term_err:2
      (Cmd.group info
         (experiment_cmds @ [ audit_cmd; swarm_cmd; churn_cmd; all_cmd ]))
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
