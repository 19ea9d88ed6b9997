(* The repository benchmark.

   Four workloads drive the libraries through their public calls and are
   timed in host time.  Simulated quantities (R_fast, disruption delays,
   blocking) are outputs: each phase's outputs are digested and compared
   with digests recorded in [reference.tsv], and a mismatch marks every
   operation of the phase as failed.

   Modes (run.py builds this executable and forwards its arguments):
     --workload W --seed N --seconds S --trace 0   end-to-end metrics
     --workload W --seed N --trace 1               per-layer metrics
     --list                                        metric catalogue
     --self-test [--seed N]                        1- vs 2-domain digests
     --record                                      print reference digests

   The last line of a measuring run is one JSON object with the keys
   correct, attempted, failed and metrics; the line before it is a
   report with the run's metadata, every phase digest and every
   end-to-end quantity of the workload. *)

(* ---------- clock and small statistics ---------- *)

let now_ns = Sim.Prof.now_ns

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, (now_ns () -. t0) /. 1e9)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [q] in [0, 100]; 0 on an empty sample. *)
let pct q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sumf = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0
let digest s = Digest.to_hex (Digest.string s)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---------- JSON output ---------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Arr of json list

let rec to_json = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.1f" f
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_json v)) kvs)
    ^ "}"
  | Arr vs -> "[" ^ String.concat ", " (List.map to_json vs) ^ "]"

(* ---------- metric catalogue ---------- *)

type kind =
  | End_to_end  (** gated by BENCHMARK.json; measured on every workload *)
  | Per_layer  (** traced run; measured on every workload *)
  | Report  (** untraced report line, on the workloads named *)

let all_workloads = [ "paper8"; "scale32"; "chaos8"; "churn16" ]

let catalogue =
  let e n u = (n, u, End_to_end, all_workloads) in
  let l n u = (n, u, Per_layer, all_workloads) in
  let r n u ws = (n, u, Report, ws) in
  [
    e "setup_s" "s";
    e "wall_s" "s";
    e "peak_rss_mb" "MB";
    e "establish_conns_per_s" "conns/s";
    r "rfast_scenarios_per_s" "scen/s" [ "paper8" ];
    r "sim_scenarios_per_s" "scen/s" [ "paper8"; "chaos8" ];
    r "churn_events_per_s" "events/s" [ "churn16" ];
    r "admit_p50_us" "us" [ "churn16" ];
    r "admit_p99_us" "us" [ "churn16" ];
    r "teardown_p50_us" "us" [ "churn16" ];
    r "teardown_p99_us" "us" [ "churn16" ];
    r "ops_failed_share" "ratio" all_workloads;
    l "routing.oracle_warm_ms" "ms";
    l "establish.plan_us.p50" "us";
    l "establish.plan_us.p99" "us";
    l "establish.plan_probes" "count";
    l "establish.commit_us.p50" "us";
    l "establish.commit_us.p99" "us";
    l "establish.commit_minor_words" "words";
    l "mux.required_with_us" "us";
    l "mux.register_unregister_us" "us";
    l "mux.entries" "count";
    l "mux.max_link_backups" "count";
    l "recovery.simulate_us.p50.link" "us";
    l "recovery.simulate_us.p99.link" "us";
    l "recovery.simulate_us.p50.node" "us";
    l "recovery.simulate_us.p99.node" "us";
    l "recovery.simulate_us.p50.node2" "us";
    l "recovery.simulate_us.p99.node2" "us";
    l "recovery.affected" "count";
    l "simnet.create_ms.p50" "ms";
    l "simnet.create_minor_words" "words";
    l "simnet.run_ms.p50" "ms";
    l "simnet.finalize_ms.p50" "ms";
    l "engine.events" "count";
    l "engine.events_per_s" "1/s";
    l "rcc.sent" "count";
    l "rcc.delivered" "count";
    l "rcc.dropped" "count";
    l "rcc.delivered_per_sent" "ratio";
    l "detector.hb_confirms" "count";
    l "establish.commit.replay" "count";
    l "establish.commit.fallback" "count";
    l "pool.tasks.stolen" "count";
    l "gc.minor_words" "words";
    l "gc.major_collections" "count";
    l "trace.overhead_pct" "%";
  ]

let unit_of name =
  match List.find_opt (fun (n, _, _, _) -> n = name) catalogue with
  | Some (_, u, _, _) -> u
  | None -> invalid_arg ("unknown metric " ^ name)

let names_of kind =
  List.filter_map
    (fun (n, _, k, _) -> if k = kind then Some n else None)
    catalogue

(* ---------- phases and seeds ---------- *)

(* A checked unit of work: [ops] operations whose outputs are summarised
   by [digest]; [sound] carries invariants checked in place (a leak, a
   count that does not add up). *)
type phase = { name : string; ops : int; secs : float; digest : string; sound : bool }

let phase ?(sound = true) name ~ops ~secs canon =
  { name; ops; secs; digest = digest canon; sound }

(* The workload seed selects one of [variants] recorded input sets, so a
   reference digest exists for every seed.  The held-out variant is
   reached through the held-out seed alone; every other seed selects one
   of the remaining variants. *)
let variants = 16
let default_seed = 1
let held_out_seed = 13

let variant_of seed =
  if seed = held_out_seed then held_out_seed
  else
    let k = ((seed mod (variants - 1)) + variants - 1) mod (variants - 1) in
    if k >= held_out_seed then k + 1 else k

(* Independent input streams of one variant. *)
let input_seed variant ~salt = Sim.Prng.derive ~seed:(1 + variant) ~index:salt

(* ---------- shared building blocks ---------- *)

let lambda = 1e-4
let t_fail = 0.01

type batch = {
  topo : Net.Topology.t;
  ns : Bcp.Netstate.t;
  requests : Workload.Generator.request list;
  warm_s : float;
}

let make_batch topo requests =
  let ns = Bcp.Netstate.create ~lambda topo () in
  let requests = requests topo in
  let (), warm_s = timed (fun () -> Routing.Oracle.warm topo) in
  { topo; ns; requests; warm_s }

let torus8 () = Eval.Setup.topology_of Eval.Setup.Torus8

let all_pairs variant topo =
  Workload.Generator.shuffled
    (Sim.Prng.create (input_seed variant ~salt:1))
    (Workload.Generator.all_pairs ~backups:1 ~mux_degree:3 topo)

let est_request (r : Workload.Generator.request) =
  {
    Bcp.Establish.src = r.Workload.Generator.src;
    dst = r.dst;
    traffic = r.traffic;
    qos = r.qos;
    backups = r.backups;
    mux_degree = r.mux_degree;
  }

let num_links ns = Net.Topology.num_links (Bcp.Netstate.topology ns)

let mux_entries ns =
  let mux = Bcp.Netstate.mux ns in
  sumi (List.init (num_links ns) (fun l -> Bcp.Mux.count_on mux ~link:l))

let establish_phase ns ~ops ~secs ~established ~rejected =
  phase "establish" ~ops ~secs
    ~sound:(established + rejected = ops)
    (Printf.sprintf "%d %d %h %h %d" established rejected
       (Bcp.Netstate.network_load ns)
       (Bcp.Netstate.spare_fraction ns)
       (mux_entries ns))

let establish_all b =
  let est, secs =
    timed (fun () -> Eval.Setup.establish_all b.ns b.requests)
  in
  establish_phase b.ns ~ops:(List.length b.requests) ~secs
    ~established:est.Eval.Setup.established ~rejected:est.Eval.Setup.rejected

(* Per-layer observations of a traced pass, by metric name. *)
type layers = (string, float) Hashtbl.t

let set (lay : layers) name v = Hashtbl.replace lay name v

(* Per-call timers of the plan-then-commit replay. *)
type planner = {
  mutable plan_s : float list;
  mutable commit_s : float list;
  mutable probes : int;
  mutable words : float;
}

let planner () = { plan_s = []; commit_s = []; probes = 0; words = 0.0 }
let timed_plan ns ~conn_id req = timed (fun () -> Bcp.Establish.plan ns ~conn_id req)

(* Commit a plan made by [timed_plan], with the serial [establish] when
   the plan is refused. *)
let commit pl ns ~conn_id req (p, plan_dt) =
  pl.plan_s <- plan_dt :: pl.plan_s;
  pl.probes <- pl.probes + Bcp.Establish.plan_probes p;
  let w0 = Gc.minor_words () in
  let r, dt =
    timed (fun () ->
        match Bcp.Establish.try_commit ns p with
        | Some r -> r
        | None -> Bcp.Establish.establish ns ~conn_id req)
  in
  pl.words <- pl.words +. (Gc.minor_words () -. w0);
  pl.commit_s <- dt :: pl.commit_s;
  r

let planner_layers lay pl =
  let us xs q = 1e6 *. pct q xs in
  set lay "establish.plan_us.p50" (us pl.plan_s 50.0);
  set lay "establish.plan_us.p99" (us pl.plan_s 99.0);
  set lay "establish.plan_probes" (float_of_int pl.probes);
  set lay "establish.commit_us.p50" (us pl.commit_s 50.0);
  set lay "establish.commit_us.p99" (us pl.commit_s 99.0);
  set lay "establish.commit_minor_words"
    (pl.words /. float_of_int (max 1 (List.length pl.commit_s)))

(* The request stream of [b] through [Establish.plan] then
   [Establish.try_commit].  With [chunk > 1] a chunk's plans are made in
   parallel on the pool against the frozen state, as the speculative bulk
   path does. *)
let replay_establish lay ~chunk b =
  let reqs = Array.of_list (List.map est_request b.requests) in
  let n = Array.length reqs in
  let pl = planner () and established = ref 0 in
  let plan j = timed_plan b.ns ~conn_id:j reqs.(j) in
  let (), secs =
    timed (fun () ->
        let i = ref 0 in
        while !i < n do
          let stop = min n (!i + chunk) in
          let idxs = List.init (stop - !i) (fun k -> !i + k) in
          let plans =
            if chunk = 1 then List.map plan idxs else Sim.Pool.map plan idxs
          in
          List.iter2
            (fun j p ->
              if Result.is_ok (commit pl b.ns ~conn_id:j reqs.(j) p) then
                incr established)
            idxs plans;
          i := stop
        done)
  in
  planner_layers lay pl;
  establish_phase b.ns ~ops:n ~secs ~established:!established
    ~rejected:(n - !established)

(* Admission cost on the busiest link of an established state: a copy of
   one of its backups under a fresh id, probed and registered then
   unregistered again, which leaves the table as it was. *)
let mux_probe lay ns =
  let mux = Bcp.Netstate.mux ns in
  let counts = List.init (num_links ns) (fun l -> Bcp.Mux.count_on mux ~link:l) in
  let busiest, most =
    List.fold_left
      (fun (bl, bc) (l, c) -> if c > bc then (l, c) else (bl, bc))
      (0, -1)
      (List.mapi (fun l c -> (l, c)) counts)
  in
  set lay "mux.entries" (float_of_int (sumi counts));
  set lay "mux.max_link_backups" (float_of_int most);
  match Bcp.Mux.on_link mux ~link:busiest with
  | [] -> ()
  | info :: _ ->
    let cand =
      { info with Bcp.Mux.backup = Bcp.Netstate.fresh_backup_id ns; conn = -1 }
    in
    let reps = 400 in
    let (), t_req =
      timed (fun () ->
          for _ = 1 to reps do
            ignore (Bcp.Mux.required_with mux ~link:busiest cand)
          done)
    in
    let (), t_reg =
      timed (fun () ->
          for _ = 1 to reps do
            Bcp.Mux.register mux ~link:busiest cand;
            Bcp.Mux.unregister mux ~link:busiest ~backup:cand.Bcp.Mux.backup
          done)
    in
    set lay "mux.required_with_us" (1e6 *. t_req /. float_of_int reps);
    set lay "mux.register_unregister_us" (1e6 *. t_reg /. float_of_int reps)

(* ---------- static recovery engine ---------- *)

let models = [ ("link", Eval.Rfast.Single_link); ("node", Single_node); ("node2", Double_node None) ]

let degrees_canon pd =
  String.concat ","
    (List.map (fun (d, (a, r)) -> Printf.sprintf "%d:%d/%d" d a r) pd)

let rfast_canon ~label ~scenarios ~affected ~recovered ~mux_failures ~no_backup
    ~excluded ~per_degree =
  Printf.sprintf "%s %d %d %d %d %d %d [%s]" label scenarios affected recovered
    mux_failures no_backup excluded (degrees_canon per_degree)

let rfast_sweep ns =
  let ms, secs =
    timed (fun () -> List.map (fun (_, m) -> Eval.Rfast.measure ns m) models)
  in
  let canon =
    List.map2
      (fun (label, _) (m : Eval.Rfast.measurement) ->
        rfast_canon ~label ~scenarios:m.scenarios ~affected:m.affected
          ~recovered:m.recovered ~mux_failures:m.mux_failures
          ~no_backup:m.no_backup ~excluded:m.excluded ~per_degree:m.per_degree)
      models ms
  in
  phase "rfast"
    ~ops:(sumi (List.map (fun (m : Eval.Rfast.measurement) -> m.scenarios) ms))
    ~secs (String.concat "\n" canon)

(* [Bcp.Recovery.simulate] per scenario, timed per call; [scenarios] gives
   each model's scenario list. *)
let replay_rfast lay ns scenarios =
  let per_model, secs =
    timed (fun () ->
        List.map
          (fun (label, scs) ->
            let runs =
              Sim.Pool.map
                (fun sc ->
                  timed (fun () ->
                      Bcp.Recovery.simulate ~order:Bcp.Recovery.By_id ns
                        ~failed:sc.Failures.Scenario.components))
                scs
            in
            (label, runs))
          scenarios)
  in
  let affected_total = ref 0 in
  let canon =
    List.map
      (fun (label, runs) ->
        let times = List.map snd runs and rs = List.map fst runs in
        set lay ("recovery.simulate_us.p50." ^ label) (1e6 *. pct 50.0 times);
        set lay ("recovery.simulate_us.p99." ^ label) (1e6 *. pct 99.0 times);
        let total f = sumi (List.map f rs) in
        let affected = total (fun r -> r.Bcp.Recovery.affected) in
        affected_total := !affected_total + affected;
        let degrees = Hashtbl.create 8 in
        List.iter
          (fun r ->
            List.iter
              (fun (d, (a, v)) ->
                let a0, v0 = Option.value ~default:(0, 0) (Hashtbl.find_opt degrees d) in
                Hashtbl.replace degrees d (a0 + a, v0 + v))
              r.Bcp.Recovery.per_degree)
          rs;
        let per_degree =
          List.sort compare (Hashtbl.fold (fun d v acc -> (d, v) :: acc) degrees [])
        in
        rfast_canon ~label ~scenarios:(List.length rs) ~affected
          ~recovered:(total (fun r -> r.Bcp.Recovery.recovered))
          ~mux_failures:(total (fun r -> r.Bcp.Recovery.mux_failures))
          ~no_backup:(total (fun r -> r.Bcp.Recovery.no_healthy_backup))
          ~excluded:(total (fun r -> r.Bcp.Recovery.excluded))
          ~per_degree)
      per_model
  in
  set lay "recovery.affected" (float_of_int !affected_total);
  phase "rfast"
    ~ops:(sumi (List.map (fun (_, scs) -> List.length scs) scenarios))
    ~secs (String.concat "\n" canon)

let full_models ns =
  let topo = Bcp.Netstate.topology ns in
  [
    ("link", Failures.Scenario.all_single_links topo);
    ("node", Failures.Scenario.all_single_nodes topo);
    ("node2", Failures.Scenario.all_double_nodes topo);
  ]

(* A small seeded sample of each model, for workloads that do not sweep. *)
let probe_models variant ns =
  let topo = Bcp.Netstate.topology ns in
  let rng = Sim.Prng.create (input_seed variant ~salt:5) in
  let pick n = Sim.Prng.sample_without_replacement rng 16 n in
  [
    ("link", List.map (Failures.Scenario.single_link topo) (pick (Net.Topology.num_links topo)));
    ("node", List.map (Failures.Scenario.single_node topo) (pick (Net.Topology.num_nodes topo)));
    ("node2", Failures.Scenario.sampled_double_nodes rng topo ~count:16);
  ]

(* ---------- event-driven simulator ---------- *)

type sim_obs = {
  create_s : float;
  create_words : float;
  run_s : float;
  finalize_s : float;
  records : Bcp.Simnet.record list;
  sent : int;
  delivered : int;
  dropped : int;
  confirms : int;
  recoveries : int;
}

let observe ~config ?impair ~until ns sc =
  let w0 = Gc.minor_words () in
  let sim, create_s = timed (fun () -> Bcp.Simnet.create ~config ns) in
  let create_words = Gc.minor_words () -. w0 in
  Option.iter (Bcp.Simnet.set_impairment sim) impair;
  Bcp.Simnet.inject sim ~at:t_fail sc;
  let (), run_s = timed (fun () -> Bcp.Simnet.run ~until sim) in
  let (), finalize_s = timed (fun () -> Bcp.Simnet.finalize sim) in
  {
    create_s;
    create_words;
    run_s;
    finalize_s;
    records = Bcp.Simnet.records sim;
    sent = Bcp.Simnet.rcc_messages_sent sim;
    delivered = Bcp.Simnet.control_messages_delivered sim;
    dropped = Bcp.Simnet.rcc_messages_dropped sim;
    confirms = Bcp.Simnet.heartbeat_confirms sim;
    recoveries = Bcp.Simnet.heartbeat_recoveries sim;
  }

let sim_layers lay obs =
  let ms f = 1e3 *. pct 50.0 (List.map f obs) in
  let total f = sumi (List.map f obs) in
  set lay "simnet.create_ms.p50" (ms (fun o -> o.create_s));
  set lay "simnet.create_minor_words"
    (sumf (List.map (fun o -> o.create_words) obs) /. float_of_int (max 1 (List.length obs)));
  set lay "simnet.run_ms.p50" (ms (fun o -> o.run_s));
  set lay "simnet.finalize_ms.p50" (ms (fun o -> o.finalize_s));
  set lay "simnet.run_s" (sumf (List.map (fun o -> o.run_s) obs));
  let sent = total (fun o -> o.sent) and delivered = total (fun o -> o.delivered) in
  set lay "rcc.sent" (float_of_int sent);
  set lay "rcc.delivered" (float_of_int delivered);
  set lay "rcc.dropped" (float_of_int (total (fun o -> o.dropped)));
  set lay "rcc.delivered_per_sent"
    (if sent = 0 then 0.0 else float_of_int delivered /. float_of_int sent);
  set lay "detector.hb_confirms" (float_of_int (total (fun o -> o.confirms)))

(* The Section 5.3 sweep: sampled single-link and single-node failures
   under the oracle detector, as [Eval.Recovery_delay.measure] runs it. *)
let delay_scenarios = 16
let delay_config = Bcp.Protocol.default_config
let delay_until = t_fail +. (0.5 *. delay_config.Bcp.Protocol.rejoin_timeout)

let delay_canon (s : Eval.Recovery_delay.stats) =
  Printf.sprintf "%d %d %d %h %h %h %h %h %h %d" s.scenarios s.samples
    s.unrecovered s.mean s.p50 s.p99 s.max s.mean_bound s.within_bound_pct
    s.rcc_sent

let delay_seed variant = input_seed variant ~salt:2

let delay_sweep variant ns =
  let s, secs =
    timed (fun () ->
        Eval.Recovery_delay.measure ~seed:(delay_seed variant)
          ~scenario_count:delay_scenarios ns)
  in
  phase "events" ~ops:s.scenarios ~secs (delay_canon s)

let delay_scenario_list variant ns =
  let topo = Bcp.Netstate.topology ns in
  let rng = Sim.Prng.create (delay_seed variant) in
  let links =
    Sim.Prng.sample_without_replacement rng delay_scenarios (Net.Topology.num_links topo)
  in
  let nodes =
    Sim.Prng.sample_without_replacement rng
      (max 1 (delay_scenarios / 4))
      (Net.Topology.num_nodes topo)
  in
  List.map (Failures.Scenario.single_link topo) links
  @ List.map (Failures.Scenario.single_node topo) nodes

let replay_delay lay variant ns =
  let scs = delay_scenario_list variant ns in
  let obs, secs =
    timed (fun () ->
        Sim.Pool.map (observe ~config:delay_config ~until:delay_until ns) scs)
  in
  sim_layers lay obs;
  let delays = Sim.Stats.Sample.create () and bounds = Sim.Stats.Running.create () in
  let within = ref 0 and samples = ref 0 and unrecovered = ref 0 in
  let d_max = delay_config.Bcp.Protocol.rcc.Rcc.Transport.d_max in
  let bound conn =
    Option.map
      (fun c ->
        let k =
          List.fold_left
            (fun m b -> max m (Net.Path.hops b.Bcp.Dconn.path))
            (Net.Path.hops c.Bcp.Dconn.primary.Rtchan.Channel.path)
            c.Bcp.Dconn.backups
        in
        let backups = max 1 (List.length c.Bcp.Dconn.backups) in
        Rcc.Bounds.recovery_delay_bound ~k ~backups ~d_max)
      (Bcp.Netstate.find ns conn)
  in
  List.iter
    (fun o ->
      List.iter
        (fun r ->
          if not r.Bcp.Simnet.excluded then
            match (r.Bcp.Simnet.resumed_at, r.Bcp.Simnet.recovered_serial) with
            | Some resumed, Some _ -> (
              let d =
                Float.max 0.0
                  (resumed -. r.Bcp.Simnet.failure_time
                  -. delay_config.Bcp.Protocol.detection_latency)
              in
              Sim.Stats.Sample.add delays d;
              incr samples;
              match bound r.Bcp.Simnet.conn with
              | None -> ()
              | Some b ->
                Sim.Stats.Running.add bounds b;
                if d <= b +. 1e-12 then incr within)
            | _ -> incr unrecovered)
        o.records)
    obs;
  let have = !samples > 0 in
  let stat f = if have then f delays else 0.0 in
  let s =
    {
      Eval.Recovery_delay.scheme = delay_config.Bcp.Protocol.scheme;
      scenarios = List.length scs;
      samples = !samples;
      unrecovered = !unrecovered;
      mean = stat Sim.Stats.Sample.mean;
      p50 = stat Sim.Stats.Sample.median;
      p99 = stat (fun d -> Sim.Stats.Sample.percentile d 99.0);
      max = stat Sim.Stats.Sample.max;
      mean_bound = Sim.Stats.Running.mean bounds;
      within_bound_pct = Sim.Stats.ratio !within !samples;
      rcc_sent = sumi (List.map (fun o -> o.sent) obs);
    }
  in
  phase "events" ~ops:s.scenarios ~secs (delay_canon s)

(* A few single-link runs under the oracle detector, for workloads whose
   measured phases run no simulation. *)
let probe_sims lay variant ns =
  let topo = Bcp.Netstate.topology ns in
  let rng = Sim.Prng.create (input_seed variant ~salt:6) in
  let links = Sim.Prng.sample_without_replacement rng 4 (Net.Topology.num_links topo) in
  sim_layers lay
    (Sim.Pool.map
       (fun l ->
         observe ~config:delay_config ~until:delay_until ns
           (Failures.Scenario.single_link topo l))
       links)

(* ---------- chaos: heartbeat detection under control-message loss ---------- *)

let chaos_scenarios = 16
let chaos_horizon = 0.25
let chaos_level = Eval.Chaos.level 0.10
let chaos_seed variant = input_seed variant ~salt:3

let chaos_config =
  {
    Bcp.Protocol.default_config with
    Bcp.Protocol.detector = Bcp.Protocol.Heartbeat Bcp.Detector.default_params;
  }

let chaos_canon (o : Eval.Chaos.outcome) =
  Printf.sprintf "%d %d %d %h %h %h %d %d %d %d" o.scenarios o.affected
    o.recovered o.r_fast o.mean_disruption o.p99_disruption o.rcc_sent
    o.rcc_dropped o.hb_confirms o.hb_recoveries

let chaos_run variant ns =
  let os, secs =
    timed (fun () ->
        Eval.Chaos.run ~seed:(chaos_seed variant) ~scenario_count:chaos_scenarios
          ~horizon:chaos_horizon ~detector:`Heartbeat ~levels:[ chaos_level ] ns)
  in
  phase "chaos" ~ops:chaos_scenarios ~secs (String.concat "\n" (List.map chaos_canon os))

(* [Eval.Chaos.run]'s loop for its first (and here only) level. *)
let replay_chaos lay variant ns =
  let seed = chaos_seed variant in
  let topo = Bcp.Netstate.topology ns in
  let m = Net.Topology.num_links topo in
  let links =
    Sim.Prng.sample_without_replacement (Sim.Prng.create seed)
      (min chaos_scenarios m) m
  in
  let lvl = chaos_level in
  let run (si, l) =
    let profile =
      Failures.Impair.make ~loss:lvl.Eval.Chaos.loss ~dup:lvl.dup ~jitter:lvl.jitter ()
    in
    let impair = Failures.Impair.create ~seed:(seed + (104729 * si)) ~default:profile () in
    observe ~config:chaos_config ~impair ~until:(t_fail +. chaos_horizon) ns
      (Failures.Scenario.single_link topo l)
  in
  let obs, secs =
    timed (fun () -> Sim.Pool.map run (List.mapi (fun si l -> (si, l)) links))
  in
  sim_layers lay obs;
  let affected = ref 0 and disruptions = Sim.Stats.Sample.create () in
  List.iter
    (fun o ->
      List.iter
        (fun r ->
          if not r.Bcp.Simnet.excluded then begin
            incr affected;
            match (r.Bcp.Simnet.resumed_at, r.Bcp.Simnet.recovered_serial) with
            | Some resumed, Some _ ->
              Sim.Stats.Sample.add disruptions (resumed -. r.Bcp.Simnet.failure_time)
            | _ -> ()
          end)
        o.records)
    obs;
  let recovered = Sim.Stats.Sample.count disruptions in
  let total f = sumi (List.map f obs) in
  let o =
    {
      Eval.Chaos.level = lvl;
      scenarios = List.length links;
      affected = !affected;
      recovered;
      r_fast = (if !affected = 0 then 100.0 else Sim.Stats.ratio recovered !affected);
      mean_disruption = (if recovered = 0 then 0.0 else Sim.Stats.Sample.mean disruptions);
      p99_disruption =
        (if recovered = 0 then 0.0 else Sim.Stats.Sample.percentile disruptions 99.0);
      rcc_sent = total (fun o -> o.sent);
      rcc_dropped = total (fun o -> o.dropped);
      hb_confirms = total (fun o -> o.confirms);
      hb_recoveries = total (fun o -> o.recoveries);
    }
  in
  phase "chaos" ~ops:chaos_scenarios ~secs (chaos_canon o)

(* ---------- churn ---------- *)

let churn_events = 12_000

let churn_params =
  Workload.Churn.make_params ~mean_holding:50.0 ~bandwidth:1.0 ~mux_degree:3
    ~offered:4.0 ()

type churn_state = { cb : batch; driver : Workload.Churn.t }

let churn_setup variant =
  let topo = Eval.Setup.topology_of Eval.Setup.Torus16 in
  let cb = make_batch topo (fun _ -> []) in
  let driver =
    Workload.Churn.create ~seed:(input_seed variant ~salt:4) topo churn_params
  in
  { cb; driver }

(* Drive [events] lifecycle events.  [admit] decides an arrival;
   teardowns are timed into [teardown_s]. *)
let churn_loop ?(events = churn_events) st ~admit =
  let ns = st.cb.ns and driver = st.driver in
  let arrivals = ref 0 and admitted = ref 0 and departures = ref 0 in
  let peak = ref 0 and teardown_s = ref [] in
  let (), secs =
    timed (fun () ->
        while Workload.Churn.emitted driver < events do
          match Workload.Churn.next driver with
          | Workload.Churn.Arrival { conn; request; _ } ->
            incr arrivals;
            if admit conn (est_request request) then begin
              incr admitted;
              Workload.Churn.admit driver ~conn;
              peak := max !peak (Workload.Churn.active driver)
            end
          | Workload.Churn.Departure { conn; _ } -> (
            incr departures;
            match Bcp.Netstate.find ns conn with
            | Some _ ->
              let (), dt = timed (fun () -> Bcp.Netstate.remove_dconn ns conn) in
              teardown_s := dt :: !teardown_s
            | None -> ())
        done)
  in
  let p =
    phase "churn" ~ops:events ~secs
      ~sound:(!arrivals + !departures = events)
      (Printf.sprintf "%d %d %d %d %d %d %h %h" !arrivals !admitted
         (!arrivals - !admitted) !departures !peak (mux_entries ns)
         (Bcp.Netstate.network_load ns)
         (Bcp.Netstate.spare_fraction ns))
  in
  (p, !teardown_s)

(* Untimed wind-down: every remaining connection departs, after which no
   multiplexing entry, load or spare reservation may remain. *)
let churn_drain st =
  let ns = st.cb.ns in
  let rec go n =
    match Workload.Churn.drain st.driver with
    | None -> n
    | Some (Workload.Churn.Departure { conn; _ }) ->
      if Bcp.Netstate.find ns conn <> None then Bcp.Netstate.remove_dconn ns conn;
      go (n + 1)
    | Some (Workload.Churn.Arrival _) -> go n
  in
  let n = go 0 in
  let entries = mux_entries ns in
  let load = Bcp.Netstate.network_load ns and spare = Bcp.Netstate.spare_fraction ns in
  phase "drain" ~ops:(max 1 n) ~secs:0.0
    ~sound:(entries = 0 && load = 0.0 && spare = 0.0)
    (Printf.sprintf "%d %d %h %h" n entries load spare)

(* ---------- workloads ---------- *)

(* One untraced pass: a fresh set-up, then the measured phases. *)
type iteration = {
  setup_s : float;
  phases : phase list;  (** every checked phase, set-up phases included *)
  values : (string * float) list;  (** end-to-end and report quantities *)
}

type traced = { t_phases : phase list; t_wall : float }

type workload = {
  name : string;
  jobs : int;
  why : string;
  setup : int -> unit;  (** the set-up alone, state discarded *)
  warmup : int -> unit;
      (** an untimed, unchecked share of a pass that grows the heap before
          the first timed pass *)
  iterate : int -> iteration;
  trace : layers -> int -> traced;
}

let wall phases = sumf (List.map (fun p -> p.secs) phases)
let rate p = float_of_int p.ops /. p.secs

let paper8 =
  let setup variant = make_batch (torus8 ()) (all_pairs variant) in
  {
    name = "paper8";
    jobs = 2;
    setup = (fun variant -> ignore (setup variant));
    warmup = (fun variant -> ignore (establish_all (setup variant)));
    why = "the paper's pipeline on the 8x8 torus: all-pairs establishment, static R_fast sweep, event-driven recovery sweep";
    iterate =
      (fun variant ->
        let b, setup_s = timed (fun () -> setup variant) in
        let est = establish_all b in
        let rf = rfast_sweep b.ns in
        let ev = delay_sweep variant b.ns in
        let phases = [ est; rf; ev ] in
        {
          setup_s;
          phases;
          values =
            [
              ("wall_s", wall phases);
              ("establish_conns_per_s", rate est);
              ("rfast_scenarios_per_s", rate rf);
              ("sim_scenarios_per_s", rate ev);
            ];
        });
    trace =
      (fun lay variant ->
        let b = setup variant in
        set lay "routing.oracle_warm_ms" (1e3 *. b.warm_s);
        let est = replay_establish lay ~chunk:1 b in
        let rf = replay_rfast lay b.ns (full_models b.ns) in
        let ev = replay_delay lay variant b.ns in
        mux_probe lay b.ns;
        let t_phases = [ est; rf; ev ] in
        { t_phases; t_wall = wall t_phases });
  }

let scale32 =
  let setup variant =
    make_batch
      (Net.Builders.torus ~rows:32 ~cols:32 ~capacity:3200.0)
      (fun topo ->
        Workload.Generator.random_pairs
          (Sim.Prng.create (input_seed variant ~salt:1))
          ~backups:1 ~mux_degree:3 topo
          ~count:(4 * Net.Topology.num_nodes topo))
  in
  {
    name = "scale32";
    jobs = 2;
    setup = (fun variant -> ignore (setup variant));
    warmup =
      (fun variant ->
        let b = setup variant in
        let half = List.length b.requests / 2 in
        ignore (establish_all { b with requests = List.filteri (fun i _ -> i < half) b.requests }));
    why = "32x32 torus, 4 random requests per node: routing search and wide mux tables, sharded speculative planning; no recovery code";
    iterate =
      (fun variant ->
        let b, setup_s = timed (fun () -> setup variant) in
        let est = establish_all b in
        {
          setup_s;
          phases = [ est ];
          values = [ ("wall_s", est.secs); ("establish_conns_per_s", rate est) ];
        });
    trace =
      (fun lay variant ->
        let b = setup variant in
        set lay "routing.oracle_warm_ms" (1e3 *. b.warm_s);
        let est = replay_establish lay ~chunk:(4 * Sim.Pool.current_jobs ()) b in
        ignore (replay_rfast lay b.ns (probe_models variant b.ns));
        probe_sims lay variant b.ns;
        mux_probe lay b.ns;
        { t_phases = [ est ]; t_wall = est.secs });
  }

let chaos8 =
  let setup variant = make_batch (torus8 ()) (all_pairs variant) in
  {
    name = "chaos8";
    jobs = 2;
    setup = (fun variant -> ignore (establish_all (setup variant)));
    warmup = (fun variant -> ignore (establish_all (setup variant)));
    why = "heartbeat detection under 10% RCC loss on the paper8 state: engine loop, RCC retransmission and detector ticks";
    iterate =
      (fun variant ->
        let (b, est), setup_s =
          timed (fun () ->
              let b = setup variant in
              (b, establish_all b))
        in
        let ch = chaos_run variant b.ns in
        {
          setup_s;
          phases = [ est; ch ];
          values =
            [
              ("wall_s", ch.secs);
              ("establish_conns_per_s", rate est);
              ("sim_scenarios_per_s", rate ch);
            ];
        });
    trace =
      (fun lay variant ->
        let b = setup variant in
        set lay "routing.oracle_warm_ms" (1e3 *. b.warm_s);
        let est = replay_establish lay ~chunk:1 b in
        let ch = replay_chaos lay variant b.ns in
        ignore (replay_rfast lay b.ns (probe_models variant b.ns));
        mux_probe lay b.ns;
        { t_phases = [ est; ch ]; t_wall = ch.secs });
  }

let churn16 =
  {
    name = "churn16";
    jobs = 1;
    setup = (fun variant -> ignore (churn_setup variant));
    warmup =
      (fun variant ->
        let st = churn_setup variant in
        let admit conn req = Result.is_ok (Bcp.Establish.establish st.cb.ns ~conn_id:conn req) in
        ignore (churn_loop ~events:(churn_events / 4) st ~admit));
    why = "16x16 torus lifecycle stream, 4 E/node: admission beside teardown (Mux.unregister), single domain";
    iterate =
      (fun variant ->
        let st, setup_s = timed (fun () -> churn_setup variant) in
        let admit_s = ref [] in
        let admit conn req =
          let r, dt = timed (fun () -> Bcp.Establish.establish st.cb.ns ~conn_id:conn req) in
          admit_s := dt :: !admit_s;
          Result.is_ok r
        in
        let ch, teardown_s = churn_loop st ~admit in
        let drain = churn_drain st in
        let us q xs = 1e6 *. pct q xs in
        {
          setup_s;
          phases = [ ch; drain ];
          values =
            [
              ("wall_s", ch.secs);
              ( "establish_conns_per_s",
                float_of_int (List.length !admit_s) /. sumf !admit_s );
              ("churn_events_per_s", rate ch);
              ("admit_p50_us", us 50.0 !admit_s);
              ("admit_p99_us", us 99.0 !admit_s);
              ("teardown_p50_us", us 50.0 teardown_s);
              ("teardown_p99_us", us 99.0 teardown_s);
            ];
        });
    trace =
      (fun lay variant ->
        let st = churn_setup variant in
        set lay "routing.oracle_warm_ms" (1e3 *. st.cb.warm_s);
        let pl = planner () and ns = st.cb.ns in
        let admit conn req =
          Result.is_ok (commit pl ns ~conn_id:conn req (timed_plan ns ~conn_id:conn req))
        in
        let ch, _ = churn_loop st ~admit in
        planner_layers lay pl;
        ignore (replay_rfast lay st.cb.ns (probe_models variant st.cb.ns));
        probe_sims lay variant st.cb.ns;
        mux_probe lay st.cb.ns;
        let drain = churn_drain st in
        { t_phases = [ ch; drain ]; t_wall = ch.secs });
  }

let workloads = [ paper8; scale32; chaos8; churn16 ]

(* ---------- reference digests ---------- *)

(* Read from the root of the checkout, where run.py runs this program. *)
let load_reference () =
  let tbl = Hashtbl.create 256 in
  let ic = open_in "perfbench/reference.tsv" in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ w; v; p; d ] -> Hashtbl.replace tbl (w, int_of_string v, p) d
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  tbl

(* Operations of [phases] whose outputs do not check out. *)
let failed_ops reference (w : workload) variant phases =
  sumi
    (List.map
       (fun (p : phase) ->
         let expected = Hashtbl.find_opt reference (w.name, variant, p.name) in
         if p.sound && expected = Some p.digest then 0
         else begin
           Printf.eprintf "CHECK FAILED: %s variant %d phase %s digest %s expected %s%s\n%!"
             w.name variant p.name p.digest
             (Option.value ~default:"(none)" expected)
             (if p.sound then "" else " (invariant violated)");
           p.ops
         end)
       phases)

(* ---------- modes ---------- *)

let meta (w : workload) ~seed ~variant ~iterations ~trace =
  let commit = Option.value ~default:"unknown" (Sys.getenv_opt "BENCH_COMMIT") in
  Obj
    [
      ("workload", Str w.name);
      ("seed", Int seed);
      ("variant", Int variant);
      ("default_seed", Int default_seed);
      ("held_out_seed", Int held_out_seed);
      ("domains", Int (Sim.Pool.current_jobs ()));
      ("host", Str (Unix.gethostname ()));
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version);
      ("commit", Str commit);
      ("iterations", Int iterations);
      ("trace", Int trace);
    ]

let metric_obj names value =
  Obj
    (List.map
       (fun n -> (n, Obj [ ("value", Num (value n)); ("unit", Str (unit_of n)) ]))
       names)

let result_line ~attempted ~failed metrics =
  print_endline
    (to_json
       (Obj
          [
            ("correct", Bool (failed = 0));
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", metrics);
          ]))

let phase_digests phases =
  Obj (List.map (fun (p : phase) -> (p.name, Str p.digest)) phases)

let min_passes = 5
let min_setups = 25

let measure reference (w : workload) ~seed ~seconds =
  let variant = variant_of seed in
  let t0 = now_ns () in
  let elapsed () = (now_ns () -. t0) /. 1e9 in
  (* A fresh process grows its heap from nothing, which makes a first
     pass measurably slower; the warm-up does that growth untimed. *)
  Gc.full_major ();
  w.warmup variant;
  let rss = ref 0.0 in
  (* At least [min_passes] passes, then more while the longest one still
     fits in [seconds]. *)
  let rec loop acc n longest =
    Gc.full_major ();
    let it, dt = timed (fun () -> w.iterate variant) in
    (* Peak memory of the warm-up and one pass, so it does not depend on
       how many passes the host's speed allowed. *)
    if acc = [] then rss := peak_rss_mb ();
    let acc = it :: acc and longest = Float.max longest dt in
    if n + 1 < min_passes || elapsed () +. longest <= seconds then loop acc (n + 1) longest
    else List.rev acc
  in
  let its = loop [] 0 0.0 in
  (* Cheap set-ups are repeated on their own, so set-up time is a median
     over at least [min_setups] samples where a second allows. *)
  let setups = ref (List.map (fun it -> it.setup_s) its) and spent = ref 0.0 in
  while List.length !setups < min_setups && !spent +. median !setups <= 1.0 do
    Gc.full_major ();
    let (), dt = timed (fun () -> w.setup variant) in
    setups := dt :: !setups;
    spent := !spent +. dt
  done;
  let all_phases = List.concat_map (fun it -> it.phases) its in
  let attempted = sumi (List.map (fun p -> p.ops) all_phases) in
  let failed = failed_ops reference w variant all_phases in
  let med name =
    median (List.map (fun it -> List.assoc name it.values) its)
  in
  let value = function
    | "setup_s" -> median !setups
    | "peak_rss_mb" -> !rss
    | "ops_failed_share" -> float_of_int failed /. float_of_int (max 1 attempted)
    | name -> med name
  in
  let reported =
    List.filter_map
      (fun (n, _, k, ws) ->
        if k <> Per_layer && List.mem w.name ws then Some n else None)
      catalogue
  in
  print_endline
    (to_json
       (Obj
          [
            ("meta", meta w ~seed ~variant ~iterations:(List.length its) ~trace:0);
            ("digests", phase_digests (List.hd its).phases);
            ( "passes",
              Obj
                (List.map
                   (fun (n, _) ->
                     (n, Arr (List.map (fun it -> Num (List.assoc n it.values)) its)))
                   (List.hd its).values) );
            ("report", metric_obj reported value);
          ]));
  result_line ~attempted ~failed (metric_obj (names_of End_to_end) value)

let trace_run reference (w : workload) ~seed =
  let variant = variant_of seed in
  (* Warm up as [measure] does, so the untraced pass that the overhead is
     taken against is not a cold-heap one. *)
  Gc.full_major ();
  w.warmup variant;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let it = w.iterate variant in
  let g1 = Gc.quick_stat () in
  Gc.full_major ();
  let lay : layers = Hashtbl.create 64 in
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  let tr = Fun.protect ~finally:Sim.Prof.disable (fun () -> w.trace lay variant) in
  let counters = (Sim.Prof.report ()).Sim.Prof.counters in
  let counter n = float_of_int (Option.value ~default:0 (List.assoc_opt n counters)) in
  List.iter
    (fun n -> set lay n (counter n))
    [ "engine.events"; "establish.commit.replay"; "establish.commit.fallback"; "pool.tasks.stolen" ];
  let run_s = Option.value ~default:0.0 (Hashtbl.find_opt lay "simnet.run_s") in
  set lay "engine.events_per_s" (if run_s > 0.0 then counter "engine.events" /. run_s else 0.0);
  set lay "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  set lay "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  let untraced_wall = List.assoc "wall_s" it.values in
  set lay "trace.overhead_pct" (100.0 *. ((tr.t_wall /. untraced_wall) -. 1.0));
  (* The traced pass must reproduce the untraced outputs exactly. *)
  let mismatched =
    List.filter
      (fun (p : phase) ->
        match List.find_opt (fun (q : phase) -> q.name = p.name) tr.t_phases with
        | Some q -> q.digest <> p.digest || not q.sound
        | None -> true)
      it.phases
  in
  List.iter
    (fun (p : phase) -> Printf.eprintf "CHECK FAILED: %s traced phase %s differs from untraced\n%!" w.name p.name)
    mismatched;
  let all_phases = it.phases @ tr.t_phases in
  let attempted = sumi (List.map (fun p -> p.ops) all_phases) in
  let failed =
    failed_ops reference w variant all_phases
    + sumi (List.map (fun p -> p.ops) mismatched)
  in
  let value n = Option.value ~default:0.0 (Hashtbl.find_opt lay n) in
  print_endline
    (to_json
       (Obj
          [
            ("meta", meta w ~seed ~variant ~iterations:1 ~trace:1);
            ("digests", phase_digests tr.t_phases);
            ("untraced_wall_s", Num untraced_wall);
            ("traced_wall_s", Num tr.t_wall);
          ]));
  result_line ~attempted ~failed (metric_obj (names_of Per_layer) value)

let list_metrics () =
  List.iter
    (fun (n, u, k, ws) ->
      let kind =
        match k with
        | End_to_end -> "end_to_end"
        | Per_layer -> "per_layer"
        | Report -> "report"
      in
      Printf.printf "%s\t%s\t%s\t%s\n" kind n u (String.concat "," ws))
    catalogue;
  List.iter (fun w -> Printf.printf "workload\t%s\t%d domains\t%s\n" w.name w.jobs w.why) workloads;
  Printf.printf "seeds\tdefault %d\theld-out %d\t%d recorded variants\n" default_seed
    held_out_seed variants

(* Every workload's digests at 1 and at 2 domains, and against the
   reference: guards the pool and speculative establishment. *)
let self_test reference ~seed =
  let variant = variant_of seed in
  let ok = ref true in
  List.iter
    (fun w ->
      let run jobs =
        Sim.Pool.set_jobs jobs;
        (w.iterate variant).phases
      in
      let one = run 1 and two = run 2 in
      let digests = List.map (fun (p : phase) -> (p.name, p.digest)) in
      let identical = digests one = digests two in
      let checked = failed_ops reference w variant (one @ two) = 0 in
      if not (identical && checked) then ok := false;
      Printf.printf "%-8s variant %2d  1 vs 2 domains: %s  reference: %s\n%!" w.name
        variant
        (if identical then "identical" else "DIFFER")
        (if checked then "match" else "MISMATCH"))
    workloads;
  if not !ok then exit 1

let record () =
  List.iter
    (fun w ->
      Sim.Pool.set_jobs w.jobs;
      for variant = 0 to variants - 1 do
        List.iter
          (fun (p : phase) ->
            if not p.sound then
              failwith (Printf.sprintf "%s variant %d: phase %s unsound" w.name variant p.name);
            Printf.printf "%s\t%d\t%s\t%s\n%!" w.name variant p.name p.digest)
          (w.iterate variant).phases
      done)
    workloads

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 and mode = ref `Measure in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper8|scale32|chaos8|churn16");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--list", Arg.Unit (fun () -> mode := `List), " print the metric catalogue");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " 1- vs 2-domain digest identity");
      ("--record", Arg.Unit (fun () -> mode := `Record), " print reference digests of every variant");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let find () =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  match !mode with
  | `List -> list_metrics ()
  | `Self_test -> self_test (load_reference ()) ~seed:!seed
  | `Record -> record ()
  | `Measure ->
    let w = find () in
    let reference = load_reference () in
    if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
    Sim.Pool.set_jobs w.jobs;
    if !trace = 1 then trace_run reference w ~seed:!seed
    else measure reference w ~seed:!seed ~seconds:!seconds
