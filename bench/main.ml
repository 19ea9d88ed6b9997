(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper at full scale
   (8x8 torus / mesh, 4032 connections) and prints them in the paper's
   layout — this is the reproduction harness proper.

   Part 2 runs the same experiments on reduced (4x4) instances — a
   minutes-to-seconds-scale suite used by CI's bench-smoke job.  Both
   parts are suites of the experiment registry ({!Eval.Experiments}),
   which [bcp_sim] reads too.

   Flags:
     --part1-only / --part2-only   select a part (default: both)
     --jobs N                      domain count for scenario sweeps
     --json FILE                   machine-readable results (bcp-bench/v1)
     --omit-timings                drop wall-clock fields from the JSON
                                   (used to commit stable baselines)
     --seed N                      PRNG seed (default 42) *)

let seed = ref 42

(* Every table produced during the run, with its wall-clock cost, in
   emission order. *)
let collected : (Eval.Report.t * float) list ref = ref []

(* Wall-clock timings of the scaling, routing and churn tiers
   (name, ns/op). *)
let kernel_timings : (string * float) list ref = ref []

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Time the construction of some reports, print them, and record them
   for the JSON sink; reports built together share their wall clock
   evenly.  The timing never influences the table contents, so the
   rendered output stays byte-identical across job counts. *)
let table mk =
  let t0 = Unix.gettimeofday () in
  let reports = mk () in
  let dt = (Unix.gettimeofday () -. t0) /. float_of_int (List.length reports) in
  List.iter
    (fun report ->
      collected := (report, dt) :: !collected;
      Eval.Report.print report)
    reports

let suite steps =
  List.iter
    (fun ((heading, _, _) as step) ->
      hr heading;
      table (fun () -> Eval.Experiments.run_step ~seed:!seed step))
    steps

(* ------------- Scaling suite: 4x4 -> 8x8 -> 16x16 at fixed load ------- *)

(* Wall-clock ns/op of a thunk, growing the repetition count until the
   sample is long enough to trust.  Used for the per-tier mux kernels:
   one gettimeofday loop per (tier, kernel) keeps the scaling run cheap. *)
let time_ns_per_op f =
  (* Timing loops are synthetic: their repetition counts adapt to machine
     speed, so letting them hit [Sim.Prof] counters (mux.register from
     the register+unregister kernel, mux.probe from required_with) would
     make profiled counter totals vary run to run and break the CI
     invariant that workload counters are identical across job counts.
     Suspend the profiler for the duration; only real workload counts. *)
  let profiled = Sim.Prof.enabled () in
  if profiled then Sim.Prof.disable ();
  Fun.protect ~finally:(fun () -> if profiled then Sim.Prof.enable ()) @@ fun () ->
  f ();
  (* warm-up *)
  let rec run reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.05 && reps < 1_000_000 then run (reps * 4)
    else dt *. 1e9 /. float_of_int reps
  in
  run 16

let scaling_tiers =
  [
    ("4x4 torus", Eval.Setup.Torus4);
    ("8x8 torus", Eval.Setup.Torus8);
    ("16x16 torus", Eval.Setup.Torus16);
    ("64x64 torus", Eval.Setup.Torus64);
  ]

(* The link carrying the most backups, and a synthetic candidate whose
   primary is the first registered backup's — the worst-case admission
   probe for this loaded network. *)
let busiest_link_candidate ns =
  let mux = Bcp.Netstate.mux ns in
  let topo = Bcp.Netstate.topology ns in
  let busiest = ref 0 in
  for l = 1 to Net.Topology.num_links topo - 1 do
    if Bcp.Mux.count_on mux ~link:l > Bcp.Mux.count_on mux ~link:!busiest then
      busiest := l
  done;
  match Bcp.Mux.on_link mux ~link:!busiest with
  | [] -> None
  | i0 :: _ ->
    Some (!busiest, { i0 with Bcp.Mux.backup = max_int / 2; conn = max_int / 2 })

let build_tier (label, net) =
  let t0 = Unix.gettimeofday () in
  let est = Eval.Setup.build_scaled ~seed:!seed ~backups:1 ~mux_degree:3 net in
  let dt = Unix.gettimeofday () -. t0 in
  (label, net, est, dt)

(* ------------- Routing micro tier: oracle vs reference --------------- *)

(* Dry-runs [Establish.plan] over a fixed request sample against the
   loaded scaling netstates, once with the routing acceleration on and
   once under [set_oracle_disabled] — byte-identical outputs, different
   work.  Probe counts and the path-digest comparison are deterministic
   (table cells, gated against the committed baseline); the wall clocks
   go through "timing:" lines and kernel_timings only, so the table stays
   byte-identical across machines and job counts. *)
let routing_sample = 256

let routing_micro runs =
  hr "ROUTING: goal-directed plan search, oracle vs reference";
  let seed = !seed in
  let tiers =
    List.filter
      (fun (label, _, _, _) -> label = "16x16 torus" || label = "64x64 torus")
      runs
  in
  let measure (label, _net, est, _dt) =
    let ns = est.Eval.Setup.ns in
    let topo = Bcp.Netstate.topology ns in
    let rng = Sim.Prng.create (Sim.Prng.derive ~seed ~index:1009) in
    let requests =
      Workload.Generator.random_pairs rng ~backups:1 ~mux_degree:3 topo
        ~count:routing_sample
    in
    (* Paths, not just path lengths: the acceleration must leave every
       chosen link identical, and a plan's probe record is internal, so
       the digest keeps exactly the plan's externally visible outcome. *)
    let digest (p : Bcp.Establish.plan) =
      match p.Bcp.Establish.plan_outcome with
      | Ok (primary, backups) ->
        Ok
          ( Net.Path.links primary,
            List.map
              (fun (b : Bcp.Establish.planned_backup) ->
                ( b.Bcp.Establish.pb_serial,
                  Net.Path.links b.Bcp.Establish.pb_path ))
              backups )
      | Error e -> Error e
    in
    let run_mode disabled =
      Routing.Shortest.set_oracle_disabled disabled;
      let t0 = Unix.gettimeofday () in
      let plans =
        List.mapi
          (fun i (r : Workload.Generator.request) ->
            Bcp.Establish.plan ns ~conn_id:i
              {
                Bcp.Establish.src = r.Workload.Generator.src;
                dst = r.dst;
                traffic = r.traffic;
                qos = r.qos;
                backups = r.backups;
                mux_degree = r.mux_degree;
              })
          requests
      in
      let dt = Unix.gettimeofday () -. t0 in
      let probes =
        List.fold_left (fun a p -> a + Bcp.Establish.plan_probes p) 0 plans
      in
      (List.map digest plans, probes, dt)
    in
    let oracle_digests, oracle_probes, oracle_dt = run_mode false in
    let ref_digests, ref_probes, ref_dt = run_mode true in
    Routing.Shortest.set_oracle_disabled false;
    ( label,
      oracle_probes,
      ref_probes,
      oracle_digests = ref_digests,
      oracle_dt,
      ref_dt )
  in
  let rows = List.map measure tiers in
  table (fun () ->
      let r =
        Eval.Report.make
          ~title:
            (Printf.sprintf
               "Routing micro: goal-directed plan search (%d dry-run plans, \
                oracle vs reference)"
               routing_sample)
          ~columns:
            [
              "plans";
              "probes (oracle)";
              "probes (reference)";
              "probes saved";
              "paths";
            ]
      in
      List.iter
        (fun (label, op, rp, identical, _, _) ->
          Eval.Report.add_row r ~label
            ~cells:
              [
                string_of_int routing_sample;
                string_of_int op;
                string_of_int rp;
                Eval.Report.pct
                  (100.0 *. (1.0 -. (float_of_int op /. float_of_int rp)));
                (if identical then "identical" else "DIVERGED");
              ])
        rows;
      [ r ]);
  List.iter
    (fun (label, _, _, _, odt, rdt) ->
      Printf.printf
        "timing: routing %-12s oracle %8.1f ms (%6.0f us/plan), reference \
         %8.1f ms, speedup %.1fx\n"
        label (odt *. 1e3)
        (odt *. 1e6 /. float_of_int routing_sample)
        (rdt *. 1e3) (rdt /. odt);
      kernel_timings :=
        ( Printf.sprintf "routing plan oracle %s (ns/plan)" label,
          odt *. 1e9 /. float_of_int routing_sample )
        :: ( Printf.sprintf "routing plan reference %s (ns/plan)" label,
             rdt *. 1e9 /. float_of_int routing_sample )
        :: !kernel_timings)
    rows

(* Standalone --routing-only entry: builds just the two micro tiers (the
   same seeded establishments the scaling suite builds, so the table
   cells match the committed scaling baseline rows byte for byte). *)
let routing_only_suite () =
  let runs =
    List.map build_tier
      (List.filter
         (fun (label, _) -> label = "16x16 torus" || label = "64x64 torus")
         scaling_tiers)
  in
  routing_micro runs

(* Peak resident set size in MB: [VmHWM] from /proc/self/status, or
   [None] where procfs is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (kb / 1024))
      | _ -> scan ()
      | exception End_of_file -> None
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let scaling () =
  hr "SCALING: establishment at fixed per-node load (8 req/node, mux=3)";
  (* Tiers run serially (not through the pool): the 64x64 tier dominates
     wall time, and establishment itself shards across the pool's domains
     inside each tier (see [Eval.Setup.establish_all]) — which it could
     not do from inside a pool task, where nested maps run inline. *)
  let runs = List.map build_tier scaling_tiers in
  table (fun () ->
      let r =
        Eval.Report.make
          ~title:
            "Scaling: establishment at fixed per-node load (8 req/node, 1 \
             backup, mux degree 3)"
          ~columns:
            [ "requests"; "established"; "rejected"; "load"; "spare"; "mux entries" ]
      in
      List.iter
        (fun (label, net, est, _) ->
          let ns = est.Eval.Setup.ns in
          let mux = Bcp.Netstate.mux ns in
          let topo = Bcp.Netstate.topology ns in
          let entries = ref 0 in
          for l = 0 to Net.Topology.num_links topo - 1 do
            entries := !entries + Bcp.Mux.count_on mux ~link:l
          done;
          let rows, cols = Eval.Setup.dims net in
          Eval.Report.add_row r ~label
            ~cells:
              [
                string_of_int (8 * rows * cols);
                string_of_int est.Eval.Setup.established;
                string_of_int est.Eval.Setup.rejected;
                Eval.Report.pct est.Eval.Setup.load;
                Eval.Report.pct est.Eval.Setup.spare;
                string_of_int !entries;
              ])
        runs;
      [ r ]);
  (* Wall-clock lines are prefixed "timing:" so CI's serial/parallel
     byte-identity diff can filter them; the values also land in the JSON
     "timings" section (dropped with --omit-timings). *)
  List.iter
    (fun (label, _, est, dt) ->
      let attempts =
        est.Eval.Setup.established + est.Eval.Setup.rejected
      in
      let throughput = float_of_int attempts /. dt in
      Printf.printf "timing: %-12s establishment %6.2f s  (%7.0f conns/s)\n"
        label dt throughput;
      kernel_timings :=
        ( Printf.sprintf "scaling establish %s (ns/conn)" label,
          dt *. 1e9 /. float_of_int attempts )
        :: !kernel_timings;
      let ns = est.Eval.Setup.ns in
      match busiest_link_candidate ns with
      | None -> ()
      | Some (link, candidate) ->
        let mux = Bcp.Netstate.mux ns in
        let on = Bcp.Mux.count_on mux ~link in
        let rw_ns =
          time_ns_per_op (fun () ->
              ignore (Bcp.Mux.required_with mux ~link candidate))
        in
        let reg_ns =
          time_ns_per_op (fun () ->
              Bcp.Mux.register mux ~link candidate;
              Bcp.Mux.unregister mux ~link ~backup:candidate.Bcp.Mux.backup)
        in
        Printf.printf
          "timing: %-12s mux kernels on busiest link (%d backups): \
           required_with %8.0f ns/op, register+unregister %8.0f ns/op\n"
          label on rw_ns reg_ns;
        kernel_timings :=
          (Printf.sprintf "scaling mux required_with %s (ns/op)" label, rw_ns)
          :: (Printf.sprintf "scaling mux register+unregister %s (ns/op)" label,
              reg_ns)
          :: !kernel_timings)
    runs;
  (* The routing micro tier rides on the loaded 16x16/64x64 states the
     scaling run just built, so every gated scaling run also gates the
     search-kernel equivalence cells. *)
  routing_micro runs;
  (* The process high-water mark over the whole run: CI holds the 64x64
     tier under a committed RSS ceiling. *)
  match peak_rss_mb () with
  | None -> ()
  | Some mb ->
    Printf.printf "timing: peak rss %d MB\n" mb;
    kernel_timings :=
      ("scaling peak rss (MB)", float_of_int mb) :: !kernel_timings

(* ------------- Churn suite: steady-state lifecycles (--churn-only) ---- *)

(* Offered-load ladders tuned so the top rung actually blocks: 4 Mbps
   connections push the 4x4 torus (50 Mbps links) into admission rejection
   around 10 E/node, and the 16x16 cell exercises the incremental mux
   hot path at production-shaped table sizes.  Outcomes are computed
   before the tables so the recorded walls time only rendering; the
   lifecycle throughput goes through the "timing:" lines and the JSON
   timings section instead. *)
let churn () =
  let seed = !seed in
  let run_tier ~label ~events ~offered ~bandwidth ~fault_every ~net =
    let t0 = Unix.gettimeofday () in
    let outcomes =
      Eval.Churn.run ~seed ~events ~offered ~bandwidth ~fault_every ~windows:4
        net
    in
    let dt = Unix.gettimeofday () -. t0 in
    let total_events =
      List.fold_left
        (fun a (o : Eval.Churn.outcome) -> a + o.Eval.Churn.events)
        0 outcomes
    in
    Printf.printf "timing: churn %-12s %6.2f s  (%d lifecycle events, %7.0f events/s)\n"
      label dt total_events
      (float_of_int total_events /. dt);
    kernel_timings :=
      ( Printf.sprintf "churn %s (ns/event)" label,
        dt *. 1e9 /. float_of_int total_events )
      :: !kernel_timings;
    outcomes
  in
  hr "CHURN: offered-load ladder, 4x4 torus (4 Mbps conns, faults every 25 s)";
  let ladder =
    run_tier ~label:"4x4 ladder" ~events:6_000 ~offered:[ 4.0; 10.0; 24.0 ]
      ~bandwidth:4.0 ~fault_every:25.0 ~net:Eval.Setup.Torus4
  in
  table (fun () ->
      [
        Eval.Churn.summary_report
          ~title:
            "Churn: 4x4 torus offered-load ladder (6k events/cell, 4 Mbps, \
             faults every 25 s)"
          ladder;
      ]);
  List.iter
    (fun (o : Eval.Churn.outcome) ->
      table (fun () ->
          [
            Eval.Churn.windows_report
              ~title:
                (Printf.sprintf "Churn windows: 4x4 ladder (offered %.1f E/node)"
                   o.Eval.Churn.offered)
              o;
          ]))
    ladder;
  hr "CHURN: 16x16 torus steady-state cell (1 Mbps conns, faults every 25 s)";
  let big =
    run_tier ~label:"16x16 cell" ~events:4_000 ~offered:[ 4.0 ] ~bandwidth:1.0
      ~fault_every:25.0 ~net:Eval.Setup.Torus16
  in
  table (fun () ->
      [
        Eval.Churn.summary_report
          ~title:"Churn: 16x16 torus steady-state cell (4k events, 4 E/node)"
          big;
      ]);
  List.iter
    (fun (o : Eval.Churn.outcome) ->
      table (fun () ->
          [
            Eval.Churn.windows_report
              ~title:
                (Printf.sprintf "Churn windows: 16x16 cell (offered %.1f E/node)"
                   o.Eval.Churn.offered)
              o;
          ]))
    big

(* ------------- JSON output (schema bcp-bench/v1) ------------- *)

let write_json ~path ~suite ~omit_timings ~total_wall ~profile =
  let tables =
    List.rev_map
      (fun (report, wall) ->
        match Eval.Report.to_json report with
        | Eval.Json.Obj fields when not omit_timings ->
          Eval.Json.Obj (fields @ [ ("wall_s", Eval.Json.Float wall) ])
        | j -> j)
      !collected
  in
  let base =
    [
      ("schema", Eval.Json.String "bcp-bench/v1");
      ("suite", Eval.Json.String suite);
      ("seed", Eval.Json.Int !seed);
      ("jobs", Eval.Json.Int (Sim.Pool.current_jobs ()));
      ("tables", Eval.Json.List tables);
    ]
  in
  let timed =
    if omit_timings then base
    else
      base
      @ [
          ( "timings",
            Eval.Json.List
              (List.rev_map
                 (fun (name, ns) ->
                   Eval.Json.Obj
                     [
                       ("name", Eval.Json.String name);
                       ("ns_per_run", Eval.Json.Float ns);
                     ])
                 !kernel_timings) );
          ("total_wall_s", Eval.Json.Float total_wall);
        ]
  in
  let timed =
    match profile with
    | None -> timed
    | Some report ->
      timed @ [ ("profile", Eval.Telemetry.prof_to_json report) ]
  in
  Eval.Json.write_file path (Eval.Json.Obj timed)

(* ------------- CLI ------------- *)

let () =
  let part1_only = ref false in
  let part2_only = ref false in
  let scaling_only = ref false in
  let churn_only = ref false in
  let routing_only = ref false in
  let json_path = ref None in
  let omit_timings = ref false in
  let profile = ref false in
  let jobs = ref 1 in
  let usage = "bench [--part1-only|--part2-only|--scaling-only|--churn-only|--routing-only] [--jobs N] [--json FILE] [--omit-timings] [--profile] [--seed N]" in
  let spec =
    [
      ("--part1-only", Arg.Set part1_only, " Run only the full-scale 8x8 suite");
      ("--part2-only", Arg.Set part2_only, " Run only the reduced 4x4 suite");
      ( "--scaling-only",
        Arg.Set scaling_only,
        " Run only the 4x4 -> 8x8 -> 16x16 scaling suite" );
      ( "--churn-only",
        Arg.Set churn_only,
        " Run only the steady-state churn suite" );
      ( "--routing-only",
        Arg.Set routing_only,
        " Run only the routing search micro tier (16x16 + 64x64, oracle vs \
         reference)" );
      ("--jobs", Arg.Set_int jobs, "N Domains for scenario sweeps (default 1)");
      ( "--json",
        Arg.String (fun s -> json_path := Some s),
        "FILE Write machine-readable results (schema bcp-bench/v1)" );
      ( "--omit-timings",
        Arg.Set omit_timings,
        " Omit wall-clock fields from the JSON (stable baselines)" );
      ( "--profile",
        Arg.Set profile,
        " Profile the engine (Sim.Prof): hot-span table on stderr, \
         bcp-prof/v1 section in the JSON" );
      ("--seed", Arg.Set_int seed, "N PRNG seed (default 42)");
    ]
  in
  let die msg =
    prerr_endline msg;
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align spec)
         (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
         usage
   with
  | Arg.Bad msg -> die msg
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !jobs < 1 then die (Printf.sprintf "--jobs must be >= 1 (got %d)" !jobs);
  if
    (if !part1_only then 1 else 0)
    + (if !part2_only then 1 else 0)
    + (if !scaling_only then 1 else 0)
    + (if !churn_only then 1 else 0)
    + (if !routing_only then 1 else 0)
    > 1
  then
    die
      "--part1-only, --part2-only, --scaling-only, --churn-only and \
       --routing-only are mutually exclusive";
  Sim.Pool.set_jobs !jobs;
  if !profile then Sim.Prof.enable ();
  let t0 = Unix.gettimeofday () in
  if not (!part2_only || !scaling_only || !churn_only || !routing_only) then
    suite Eval.Experiments.full;
  if not (!part1_only || !scaling_only || !churn_only || !routing_only) then
    suite Eval.Experiments.reduced;
  (* The scaling and churn tiers run in the full suite and under their
     --*-only flags; the part-1/part-2 selections stay exactly the
     historical suites.  The routing micro tier rides inside the scaling
     suite (sharing its loaded netstates) and under --routing-only builds
     just its own two tiers. *)
  if !scaling_only || not (!part1_only || !part2_only || !churn_only || !routing_only)
  then scaling ();
  if !routing_only then routing_only_suite ();
  if !churn_only || not (!part1_only || !part2_only || !scaling_only || !routing_only)
  then churn ();
  let total_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal wall time: %.1f s\n" total_wall;
  (* The hot-span table goes to stderr so profiling leaves stdout (and
     the CI identity diffs over it) untouched. *)
  let prof_report =
    if !profile then begin
      let r = Sim.Prof.report () in
      Sim.Prof.print_top Format.err_formatter;
      Some r
    end
    else None
  in
  (match !json_path with
  | None -> ()
  | Some path ->
    let suite =
      if !part1_only then "part1"
      else if !part2_only then "part2"
      else if !scaling_only then "scaling"
      else if !churn_only then "churn"
      else if !routing_only then "routing"
      else "full"
    in
    write_json ~path ~suite ~omit_timings:!omit_timings ~total_wall
      ~profile:prof_report)
