type backup_routing = Min_hops | Min_spare_increment

type request = {
  src : int;
  dst : int;
  traffic : Rtchan.Traffic.t;
  qos : Rtchan.Qos.t;
  backups : int;
  mux_degree : int;
}

type reject =
  | Primary_rejected of Rtchan.Rnmp.reject_reason
  | Backup_rejected of int
  | Reliability_unreachable of float

let pp_reject ppf = function
  | Primary_rejected r ->
    Format.fprintf ppf "primary rejected: %a" Rtchan.Rnmp.pp_reject r
  | Backup_rejected serial -> Format.fprintf ppf "backup #%d rejected" serial
  | Reliability_unreachable best ->
    Format.fprintf ppf "required reliability unreachable (best %.9f)" best

(* Reusable per-domain cost cache for the spare-increment search: Dijkstra
   may relax a link at several hop levels, and the per-link cost is
   constant during one search but O(backups on link) to compute.  Epoch
   stamping makes starting a search O(1); [cost.(l) < 0] encodes an
   inadmissible link. *)
type cost_ws = {
  mutable ccost : float array;
  mutable cstamp : int array;
  mutable cepoch : int;
}

let cost_ws_key =
  Domain.DLS.new_key (fun () -> { ccost = [||]; cstamp = [||]; cepoch = 0 })

let get_cost_ws num_links =
  let ws = Domain.DLS.get cost_ws_key in
  if Array.length ws.ccost < num_links then begin
    ws.ccost <- Array.make num_links 0.0;
    ws.cstamp <- Array.make num_links 0;
    ws.cepoch <- 0
  end;
  ws.cepoch <- ws.cepoch + 1;
  ws

(* Route one backup disjoint from [avoid], admissible at threshold [nu],
   optionally avoiding failed components.  [strategy] picks between the
   paper's shortest-path search and the spare-increment-minimising
   extension.  [on_admission_check] (speculative planning) observes the id
   and verdict of every admission probe against a link's mutable state
   ([Min_hops] only — the spare-increment costs are not captured). *)
let route_backup ?tie_break ?(strategy = Min_hops)
    ?(avoid_components = Net.Component.Set.empty) ?on_admission_check ns ~conn
    ~bid ~serial ~nu ~avoid =
  let topo = Netstate.topology ns in
  let src = conn.Dconn.src and dst = conn.Dconn.dst in
  let touch =
    match on_admission_check with None -> fun _ _ -> () | Some f -> f
  in
  let info =
    {
      Mux.backup = bid;
      conn = conn.Dconn.id;
      serial;
      nu;
      bw = Dconn.bandwidth conn;
      primary_components =
        Mux.encode_components
          (Net.Path.components topo conn.Dconn.primary.Rtchan.Channel.path);
    }
  in
  (* One admission probe per candidate: every link's table scan (primary
     overlap and S-values against each slot) runs once per candidate,
     however many times the routing search relaxes the link. *)
  let probe = Netstate.admission_probe ns info in
  (* The QoS hop budget is relative to the shortest path available *to
     this channel*: disjoint from the connection's other channels and
     clear of failed components (Section 7: "not longer than the
     shortest-possible path by more than 2 hops").  Using the
     unconstrained shortest here would make a third disjoint channel
     infeasible for many torus node pairs the paper evaluates.  The banned
     set lives in the domain-local mask scratch; it is dead once the
     feasibility search below returns (later searches re-acquire the
     scratch). *)
  let num_nodes = Net.Topology.num_nodes topo in
  let num_links = Net.Topology.num_links topo in
  let disjoint_banned = Net.Component.Mask.scratch ~num_nodes ~num_links in
  Net.Component.Mask.add_set disjoint_banned avoid_components;
  List.iter
    (fun p ->
      Net.Component.Mask.add_set disjoint_banned
        (Net.Path.interior_components topo p))
    avoid;
  let feasibility_link_ok l =
    not (Net.Component.Mask.mem_link disjoint_banned l.Net.Topology.id)
  in
  let feasibility_node_ok v =
    not (Net.Component.Mask.mem_node disjoint_banned v)
  in
  match
    (* With nothing banned the feasibility pre-search degenerates to the
       unconstrained hop distance, which the static oracle answers in
       O(1); otherwise the masked bidirectional search runs. *)
    if Net.Component.Mask.is_empty disjoint_banned then
      Routing.Shortest.shortest_hops topo ~src ~dst
    else
      Routing.Shortest.shortest_hops ~link_ok:feasibility_link_ok
        ~node_ok:feasibility_node_ok topo ~src ~dst
  with
  | None -> None
  | Some shortest ->
    let budget = Rtchan.Qos.max_hops conn.Dconn.qos ~shortest in
    let link_ok l =
      (not
         (Net.Component.Set.mem
            (Net.Component.Link l.Net.Topology.id)
            avoid_components))
      &&
      let v =
        Netstate.backup_admissible_probe ns probe ~link:l.Net.Topology.id
      in
      touch l.Net.Topology.id v;
      v
    in
    let node_ok v =
      not (Net.Component.Set.mem (Net.Component.Node v) avoid_components)
    in
    (match strategy with
    | Min_hops ->
      let constraints = { Routing.Disjoint.link_ok; node_ok; max_hops = Some budget } in
      Routing.Disjoint.disjoint_avoiding ~constraints ?tie_break topo ~src ~dst
        ~avoid
    | Min_spare_increment ->
      (* Cost of a link = extra spare bandwidth this backup would force it
         to reserve, with a small per-hop epsilon to prefer shorter paths
         among equals.  Interior components of the connection's other
         channels stay off limits. *)
      let banned = Net.Component.Mask.scratch ~num_nodes ~num_links in
      List.iter
        (fun p ->
          Net.Component.Mask.add_set banned
            (Net.Path.interior_components topo p))
        avoid;
      let mux = Netstate.mux ns in
      let epsilon_hop = 1e-6 *. Float.max 1.0 info.Mux.bw in
      let ws = get_cost_ws num_links in
      let epoch = ws.cepoch in
      let cost l =
        let id = l.Net.Topology.id in
        if ws.cstamp.(id) <> epoch then begin
          ws.cstamp.(id) <- epoch;
          ws.ccost.(id) <-
            (if Net.Component.Mask.mem_link banned id then -1.0
             else if not (link_ok l) then -1.0
             else begin
               let increment =
                 match Netstate.policy ns with
                 | Netstate.Brute_force _ -> 0.0
                 | Netstate.Multiplexed ->
                   Mux.probe_required probe ~link:id
                   -. Mux.spare_requirement mux ~link:id
               in
               Float.max 0.0 increment +. epsilon_hop
             end)
        end;
        let c = ws.ccost.(id) in
        if c < 0.0 then None else Some c
      in
      let node_ok v =
        node_ok v && not (Net.Component.Mask.mem_node banned v)
      in
      Option.map fst
        (Routing.Dijkstra.shortest_path ~cost ~node_ok ~max_hops:budget topo
           ~src ~dst))

(* Add a routed backup to the connection and the network tables.  The
   span isolates the registration share of establishment (mux table
   insertion dominates it) from the routing searches around it. *)
let attach ns conn backup =
  Sim.Prof.span "establish.register" @@ fun () ->
  conn.Dconn.backups <- conn.Dconn.backups @ [ backup ];
  Netstate.register_backup ns conn backup

let detach ns conn backup =
  Netstate.unregister_backup ns conn backup;
  conn.Dconn.backups <-
    List.filter (fun b -> b.Dconn.serial <> backup.Dconn.serial) conn.Dconn.backups

let establish ?tie_break ?backup_routing ns ~conn_id request =
  if request.backups < 0 then invalid_arg "Establish.establish: negative backups";
  if request.mux_degree < 0 then
    invalid_arg "Establish.establish: negative mux degree";
  Sim.Prof.span "establish.serial" @@ fun () ->
  let rnmp = Netstate.rnmp ns in
  match
    Sim.Prof.span "establish.primary" (fun () ->
        Rtchan.Rnmp.establish ?tie_break rnmp ~src:request.src ~dst:request.dst
          ~traffic:request.traffic ~qos:request.qos)
  with
  | Error r -> Error (Primary_rejected r)
  | Ok primary ->
    Netstate.bump_path ns primary.Rtchan.Channel.path;
    let conn =
      {
        Dconn.id = conn_id;
        src = request.src;
        dst = request.dst;
        traffic = request.traffic;
        qos = request.qos;
        primary;
        backups = [];
        primary_alive = true;
        target_backups = request.backups;
      }
    in
    let nu =
      Reliability.Combinatorial.nu_of_degree ~lambda:(Netstate.lambda ns)
        request.mux_degree
    in
    let rec add_backups serial =
      if serial > request.backups then Ok ()
      else begin
        let bid = Netstate.fresh_backup_id ns in
        let avoid =
          primary.Rtchan.Channel.path :: List.map (fun b -> b.Dconn.path) conn.Dconn.backups
        in
        match
          Sim.Prof.span "establish.backup_route" (fun () ->
              route_backup ?tie_break ?strategy:backup_routing ns ~conn ~bid
                ~serial ~nu ~avoid)
        with
        | None -> Error (Backup_rejected serial)
        | Some path ->
          let b = { Dconn.bid; serial; path; nu; state = Dconn.Standby } in
          attach ns conn b;
          add_backups (serial + 1)
      end
    in
    (match add_backups 1 with
    | Ok () ->
      Netstate.add_dconn ns conn;
      Ok conn
    | Error e ->
      (* Roll back everything reserved for this connection. *)
      List.iter (fun b -> Netstate.unregister_backup ns conn b) conn.Dconn.backups;
      Rtchan.Rnmp.teardown rnmp primary.Rtchan.Channel.id;
      Netstate.bump_path ns primary.Rtchan.Channel.path;
      Error e)

let add_backup ?tie_break ?avoid_components ns conn ~mux_degree =
  if mux_degree < 0 then invalid_arg "Establish.add_backup: negative mux degree";
  let nu =
    Reliability.Combinatorial.nu_of_degree ~lambda:(Netstate.lambda ns) mux_degree
  in
  let serial =
    1 + List.fold_left (fun m b -> max m b.Dconn.serial) 0 conn.Dconn.backups
  in
  let bid = Netstate.fresh_backup_id ns in
  let live_paths =
    conn.Dconn.primary.Rtchan.Channel.path
    :: List.filter_map
         (fun b ->
           match b.Dconn.state with
           | Dconn.Standby | Dconn.Activated -> Some b.Dconn.path
           | Dconn.Broken | Dconn.Closed -> None)
         conn.Dconn.backups
  in
  match
    route_backup ?tie_break ?avoid_components ns ~conn ~bid ~serial ~nu
      ~avoid:live_paths
  with
  | None -> Error (Backup_rejected serial)
  | Some path ->
    let b = { Dconn.bid; serial; path; nu; state = Dconn.Standby } in
    attach ns conn b;
    Ok b

let rec establish_offered ?tie_break ?backup_routing ns ~conn_id request =
  match establish ?tie_break ?backup_routing ns ~conn_id request with
  | Error e -> Error e
  | Ok conn -> Ok (conn, achieved_pr ns conn)

and achieved_pr ns conn =
  let topo = Netstate.topology ns in
  let lambda = Netstate.lambda ns in
  let mux = Netstate.mux ns in
  let c_primary =
    Net.Component.Set.cardinal
      (Net.Path.components topo conn.Dconn.primary.Rtchan.Channel.path)
  in
  let backups =
    List.filter_map
      (fun b ->
        if b.Dconn.state <> Dconn.Standby then None
        else begin
          let c_b =
            Net.Component.Set.cardinal (Net.Path.components topo b.Dconn.path)
          in
          let psi_sizes =
            List.map
              (fun link -> Mux.psi_size mux ~link ~backup:b.Dconn.bid)
              (Net.Path.links b.Dconn.path)
          in
          let p_muxf =
            Reliability.Combinatorial.p_muxf_bound ~nu:b.Dconn.nu ~psi_sizes
          in
          Some (c_b, p_muxf)
        end)
      conn.Dconn.backups
  in
  Reliability.Combinatorial.pr_multi_backup ~lambda ~c_primary ~backups

let establish_with_reliability ?tie_break ?(max_backups = 3) ns ~conn_id ~src
    ~dst ~traffic ~qos ~pr_required =
  let lambda = Netstate.lambda ns in
  let topo = Netstate.topology ns in
  (* Candidate degrees: one class per possible shared-component count, at
     most the longest path length in components (Section 3.4: "the number
     of classes are not greater than the length of the longest possible
     path in the network"). *)
  let max_degree = (2 * Net.Topology.num_nodes topo) + 1 in
  let rnmp = Netstate.rnmp ns in
  match Rtchan.Rnmp.establish ?tie_break rnmp ~src ~dst ~traffic ~qos with
  | Error r -> Error (Primary_rejected r)
  | Ok primary ->
    Netstate.bump_path ns primary.Rtchan.Channel.path;
    let conn =
      {
        Dconn.id = conn_id;
        src;
        dst;
        traffic;
        qos;
        primary;
        backups = [];
        primary_alive = true;
        target_backups = max_backups;
      }
    in
    let rollback () =
      List.iter (fun b -> Netstate.unregister_backup ns conn b) conn.Dconn.backups;
      Rtchan.Rnmp.teardown rnmp primary.Rtchan.Channel.id;
      Netstate.bump_path ns primary.Rtchan.Channel.path
    in
    (* Try to attach one more backup: scan degrees from largest (cheapest)
       to smallest, keeping the largest degree whose resulting P_r meets
       the requirement; if none does, keep the smallest feasible degree
       (maximum protection) and let the caller add another backup. *)
    let try_add serial =
      let rec scan alpha best_fallback =
        if alpha < 1 then best_fallback
        else begin
          let nu = Reliability.Combinatorial.nu_of_degree ~lambda alpha in
          let bid = Netstate.fresh_backup_id ns in
          let avoid =
            primary.Rtchan.Channel.path
            :: List.map (fun b -> b.Dconn.path) conn.Dconn.backups
          in
          match route_backup ?tie_break ns ~conn ~bid ~serial ~nu ~avoid with
          | None -> scan (alpha - 1) best_fallback
          | Some path ->
            let b = { Dconn.bid; serial; path; nu; state = Dconn.Standby } in
            attach ns conn b;
            let pr = achieved_pr ns conn in
            if Reliability.Combinatorial.pr_requirement_met ~required:pr_required ~achieved:pr
            then Some (b, pr, true)
            else begin
              detach ns conn b;
              scan (alpha - 1) (Some (b, pr, false))
            end
        end
      in
      scan max_degree None
    in
    let rec grow serial =
      if serial > max_backups then begin
        let best = achieved_pr ns conn in
        rollback ();
        Error (Reliability_unreachable best)
      end
      else
        match try_add serial with
        | None ->
          let best = achieved_pr ns conn in
          rollback ();
          Error (Reliability_unreachable best)
        | Some (_, pr, true) ->
          Netstate.add_dconn ns conn;
          Ok (conn, pr)
        | Some (b, _, false) ->
          (* Keep the most protective feasible backup and try to close the
             gap with another one. *)
          attach ns conn b;
          grow (serial + 1)
    in
    if
      Reliability.Combinatorial.pr_requirement_met ~required:pr_required
        ~achieved:(achieved_pr ns conn)
    then begin
      Netstate.add_dconn ns conn;
      Ok (conn, achieved_pr ns conn)
    end
    else grow 1

(* ---------------- speculative establishment (sharded admission) --------- *)

(* A plan is a dry run of {!establish} against a frozen network state: it
   routes the primary and every backup without reserving anything, and
   records every admission probe against a link's *mutable* state
   (primary bandwidth headroom, spare sizing, mux tables) together with
   its boolean verdict and the link's version at plan time.

   The serial merge replays a plan only when every recorded verdict still
   holds.  Links whose version is unchanged hold trivially; for the rest
   the verdict is recomputed against the live tables (cheap: one O(1)
   headroom test for primary probes, one memoized admission probe for
   backup probes) — a predecessor consuming bandwidth elsewhere on a
   consulted link almost never flips its verdict, so plans survive heavy
   write traffic.  Under [Min_hops] routing, the search outcome is a
   deterministic function of the topology, the avoid set and these
   verdicts, so unchanged verdicts guarantee that serial re-execution
   would reproduce the planned paths — reservation can skip straight to
   {!Rtchan.Rnmp.establish_on_path} plus backup registration.  Everything
   else falls back to the ordinary serial {!establish}, keeping the
   result stream byte-identical to a purely sequential run whatever the
   interleaving of the planning domains. *)

type planned_backup = { pb_serial : int; pb_path : Net.Path.t; pb_nu : float }

(* Reads are packed two ints per probe — [link * 2 + verdict; version] —
   into one flat array, with [rd_seg.(k)] the end offset (in pairs) of
   the probes made by search [k] (0 = primary, k >= 1 = backup #k).
   Searches run in serial order, so segment boundaries replace a
   per-read serial field; the flat encoding keeps planning allocation
   per probe at two unboxed stores (tens of millions of probes are
   recorded per bulk run — boxed read lists made the planning domains
   allocation-bound and the merge cache-bound). *)
type plan_reads = { rd_data : int array; rd_seg : int array }

type plan = {
  plan_conn_id : int;
  plan_request : request;
  plan_outcome : (Net.Path.t * planned_backup list, reject) result;
  plan_reads : plan_reads;
}

let plan_probes p = Array.length p.plan_reads.rd_data / 2

let plan ns ~conn_id request =
  if request.backups < 0 then invalid_arg "Establish.plan: negative backups";
  if request.mux_degree < 0 then invalid_arg "Establish.plan: negative mux degree";
  Sim.Prof.span "establish.plan" @@ fun () ->
  let topo = Netstate.topology ns in
  let res = Netstate.resources ns in
  let buf = Ids.Ivec.create () in
  let seg = Ids.Ivec.create () in
  (* No dedup: each search probes a link at most a handful of times (the
     BFS examines each directed edge once), and duplicate entries are
     merely re-checked at commit. *)
  let record link verdict =
    Ids.Ivec.push buf ((link * 2) + Bool.to_int verdict);
    Ids.Ivec.push buf (Netstate.link_version ns ~link)
  in
  let close_segment () = Ids.Ivec.push seg (Ids.Ivec.length buf / 2) in
  let finish outcome =
    Sim.Prof.count ~by:(Ids.Ivec.length buf / 2) "establish.plan.probes";
    {
      plan_conn_id = conn_id;
      plan_request = request;
      plan_outcome = outcome;
      plan_reads =
        { rd_data = Ids.Ivec.to_array buf; rd_seg = Ids.Ivec.to_array seg };
    }
  in
  (* Primary: the same search as {!Rtchan.Rnmp.route}, with every
     bandwidth test recorded. *)
  let bw = Rtchan.Traffic.bandwidth request.traffic in
  match Routing.Shortest.shortest_hops topo ~src:request.src ~dst:request.dst with
  | None -> finish (Error (Primary_rejected Rtchan.Rnmp.No_route))
  | Some shortest ->
    let budget = Rtchan.Qos.max_hops request.qos ~shortest in
    let link_ok l =
      let v = Rtchan.Resource.can_reserve_primary res l.Net.Topology.id bw in
      record l.Net.Topology.id v;
      v
    in
    let primary_result =
      Routing.Shortest.shortest_path ~link_ok ~max_hops:budget topo
        ~src:request.src ~dst:request.dst
    in
    close_segment ();
    (match primary_result with
    | None -> finish (Error (Primary_rejected Rtchan.Rnmp.No_bandwidth))
    | Some primary_path ->
      (* Backups: the same loop as {!establish}, probing with a
         placeholder bid (-1, never registered, so admission scans behave
         exactly as for a fresh id) and a scratch connection carrying the
         planned primary. *)
      let scratch_conn =
        {
          Dconn.id = conn_id;
          src = request.src;
          dst = request.dst;
          traffic = request.traffic;
          qos = request.qos;
          primary =
            {
              Rtchan.Channel.id = -1;
              path = primary_path;
              traffic = request.traffic;
              qos = request.qos;
            };
          backups = [];
          primary_alive = true;
          target_backups = request.backups;
        }
      in
      let nu =
        Reliability.Combinatorial.nu_of_degree ~lambda:(Netstate.lambda ns)
          request.mux_degree
      in
      let rec add serial acc avoid =
        if serial > request.backups then
          finish (Ok (primary_path, List.rev acc))
        else begin
          let routed =
            route_backup ~on_admission_check:record ns ~conn:scratch_conn
              ~bid:(-1) ~serial ~nu ~avoid
          in
          close_segment ();
          match routed with
          | None -> finish (Error (Backup_rejected serial))
          | Some path ->
            add (serial + 1)
              ({ pb_serial = serial; pb_path = path; pb_nu = nu } :: acc)
              (avoid @ [ path ])
        end
      in
      add 1 [] [ primary_path ])

(* Do all recorded verdicts still hold against the live state?
   Version-unchanged links hold trivially; the rest recompute the single
   verdict — an O(1) headroom test for primary probes, a (fast-accepting,
   memoized) admission probe for backups, reconstructed lazily once per
   serial from the planned primary, mirroring the probe [plan] used. *)
let plan_valid ns plan =
  let bw = Rtchan.Traffic.bandwidth plan.plan_request.traffic in
  let res = Netstate.resources ns in
  let topo = Netstate.topology ns in
  (* Backup segments only exist once a primary was found, so the [Error]
     arm is never forced. *)
  let primary_components =
    lazy
      (match plan.plan_outcome with
      | Ok (primary_path, _) ->
        Mux.encode_components (Net.Path.components topo primary_path)
      | Error _ -> [||])
  in
  let nu =
    Reliability.Combinatorial.nu_of_degree ~lambda:(Netstate.lambda ns)
      plan.plan_request.mux_degree
  in
  let data = plan.plan_reads.rd_data and seg = plan.plan_reads.rd_seg in
  let probe = ref None (* for the segment currently being checked *) in
  let probe_for serial =
    match !probe with
    | Some p -> p
    | None ->
      let p =
        Netstate.admission_probe ns
          {
            Mux.backup = -1;
            conn = plan.plan_conn_id;
            serial;
            nu;
            bw;
            primary_components = Lazy.force primary_components;
          }
      in
      probe := Some p;
      p
  in
  let ok = ref true in
  let i = ref 0 in
  let recomputed = ref 0 in
  Array.iteri
    (fun serial stop ->
      probe := None;
      while !ok && !i < stop do
        let lv = data.(2 * !i) and version = data.((2 * !i) + 1) in
        let link = lv lsr 1 in
        (if Netstate.link_version ns ~link <> version then begin
           incr recomputed;
           let live =
             if serial = 0 then Rtchan.Resource.can_reserve_primary res link bw
             else Netstate.backup_admissible_probe ns (probe_for serial) ~link
           in
           if live <> (lv land 1 = 1) then ok := false
         end);
        incr i
      done;
      i := stop)
    seg;
  if !recomputed > 0 then
    Sim.Prof.count ~by:!recomputed "establish.plan.recompute";
  !ok

(* Merge-outcome counters: [replay] plans skipped the serial search
   entirely, [fallback] plans were recomputed by the ordinary serial
   path.  First-class observability for the speculative merge — its hit
   rate was previously invisible. *)
let commit_replay () = Sim.Prof.count "establish.commit.replay"

let commit_fallback r =
  Sim.Prof.count "establish.commit.fallback";
  r

let try_commit ns plan =
  match plan.plan_outcome with
  | Error (Primary_rejected _ as e) ->
    (* A valid primary rejection consumed nothing: count it and move on. *)
    if plan_valid ns plan then begin
      commit_replay ();
      Some (Error e)
    end
    else commit_fallback None
  | Error _ ->
    (* A backup rejection consumes a channel id and backup ids before
       rolling back; replaying that consumption is exactly the serial
       path, so always recompute. *)
    commit_fallback None
  | Ok (primary_path, backups) ->
    if not (plan_valid ns plan) then commit_fallback None
    else begin
      let rnmp = Netstate.rnmp ns in
      match
        Rtchan.Rnmp.establish_on_path rnmp ~path:primary_path
          ~traffic:plan.plan_request.traffic ~qos:plan.plan_request.qos
      with
      | Error _ ->
        (* Unreachable when the plan validated; recompute serially. *)
        commit_fallback None
      | Ok primary ->
        Netstate.bump_path ns primary_path;
        let conn =
          {
            Dconn.id = plan.plan_conn_id;
            src = plan.plan_request.src;
            dst = plan.plan_request.dst;
            traffic = plan.plan_request.traffic;
            qos = plan.plan_request.qos;
            primary;
            backups = [];
            primary_alive = true;
            target_backups = plan.plan_request.backups;
          }
        in
        List.iter
          (fun pb ->
            let bid = Netstate.fresh_backup_id ns in
            attach ns conn
              {
                Dconn.bid;
                serial = pb.pb_serial;
                path = pb.pb_path;
                nu = pb.pb_nu;
                state = Dconn.Standby;
              })
          backups;
        Netstate.add_dconn ns conn;
        commit_replay ();
        Some (Ok conn)
    end
