type spare_policy = Multiplexed | Brute_force of float

(* Dense-id allocation layer shared by the flat tables (re-exported for
   callers assembling their own slabs). *)
module Ids = Ids

type t = {
  topo : Net.Topology.t;
  rnmp : Rtchan.Rnmp.t;
  mux : Mux.t;
  policy : spare_policy;
  lambda : float;
  dconns : (int, Dconn.t) Hashtbl.t;
  (* Flat indexes keyed by dense ids: backup ids come from [bid_ids] (a
     pure watermark — never released, so the bid stream is stable),
     primary channel ids from RNMP's own counter, links and nodes from the
     topology.  The per-link/per-node bid vectors mirror the old cons-list
     indexes: push = cons, newest-first iteration preserved by
     [Ivec.to_list_rev]. *)
  bid_ids : Ids.t;
  by_bid : (Dconn.t * Dconn.backup) option Ids.Slab.t;
  by_primary : Dconn.t option Ids.Slab.t; (* primary channel id -> conn *)
  backups_on_link : Ids.Ivec.t array; (* link -> bids, insertion order *)
  backups_through_node : Ids.Ivec.t array;
  (* Per-link mutation counter for optimistic concurrency: speculative
     establishment planners record the versions of every link whose
     mutable state they consult; the serial merge replays a plan only if
     those versions still match.  Bumped on every spare/mux/primary
     mutation that goes through this module (callers touching RNMP
     directly bump via {!bump_path}). *)
  link_version : int array;
}

let create ?(lambda = 1e-4) ?(policy = Multiplexed) topo () =
  let rnmp = Rtchan.Rnmp.create topo in
  (match policy with
  | Multiplexed -> ()
  | Brute_force spare ->
    if spare < 0.0 then invalid_arg "Netstate.create: negative brute-force spare";
    Net.Topology.iter_links topo (fun l ->
        Rtchan.Resource.set_spare (Rtchan.Rnmp.resources rnmp) l.Net.Topology.id
          (Float.min spare l.Net.Topology.capacity)));
  let num_links = Net.Topology.num_links topo in
  {
    topo;
    rnmp;
    mux = Mux.create topo ~lambda;
    policy;
    lambda;
    dconns = Hashtbl.create 1024;
    bid_ids = Ids.create ~expected:1024 ~kind:"backup" ();
    by_bid = Ids.Slab.create ~expected:1024 ~kind:"by_bid" ~default:None ();
    by_primary =
      Ids.Slab.create ~expected:1024 ~kind:"by_primary" ~default:None ();
    backups_on_link = Array.init num_links (fun _ -> Ids.Ivec.create ());
    backups_through_node =
      Array.init (Net.Topology.num_nodes topo) (fun _ -> Ids.Ivec.create ());
    link_version = Array.make (max 1 num_links) 0;
  }

let topology t = t.topo
let rnmp t = t.rnmp
let resources t = Rtchan.Rnmp.resources t.rnmp
let mux t = t.mux
let lambda t = t.lambda
let policy t = t.policy

let set_self_check t on = Mux.set_self_check t.mux on

(* Backup ids are never recycled: they appear in telemetry, traces and
   benchmark artifacts, so the stream must be a pure watermark. *)
let fresh_backup_id t = Ids.fresh t.bid_ids

let link_version t ~link = t.link_version.(link)

let bump_link t ~link = t.link_version.(link) <- t.link_version.(link) + 1

let bump_path t path =
  List.iter (fun link -> bump_link t ~link) (Net.Path.links path)

let backup_info_of t (conn : Dconn.t) (b : Dconn.backup) =
  {
    Mux.backup = b.Dconn.bid;
    conn = conn.Dconn.id;
    serial = b.Dconn.serial;
    nu = b.Dconn.nu;
    bw = Dconn.bandwidth conn;
    primary_components =
      Mux.encode_components
        (Net.Path.components t.topo conn.Dconn.primary.Rtchan.Channel.path);
  }

let refresh_spare t ~link =
  match t.policy with
  | Brute_force _ -> ()
  | Multiplexed ->
    let req = Mux.spare_requirement t.mux ~link in
    Rtchan.Resource.set_spare (resources t) link req;
    bump_link t ~link

let register_backup t conn (b : Dconn.backup) =
  let info = backup_info_of t conn b in
  List.iter
    (fun link ->
      Mux.register t.mux ~link info;
      refresh_spare t ~link;
      bump_link t ~link;
      Ids.Ivec.push t.backups_on_link.(link) b.Dconn.bid)
    (Net.Path.links b.Dconn.path);
  List.iter
    (fun v -> Ids.Ivec.push t.backups_through_node.(v) b.Dconn.bid)
    (Net.Path.nodes t.topo b.Dconn.path);
  Ids.Slab.set t.by_bid b.Dconn.bid (Some (conn, b))

let unregister_backup t conn (b : Dconn.backup) =
  List.iter
    (fun link ->
      Mux.unregister t.mux ~link ~backup:b.Dconn.bid;
      refresh_spare t ~link;
      bump_link t ~link;
      Ids.Ivec.remove_first t.backups_on_link.(link) b.Dconn.bid)
    (Net.Path.links b.Dconn.path);
  List.iter
    (fun v -> Ids.Ivec.remove_first t.backups_through_node.(v) b.Dconn.bid)
    (Net.Path.nodes t.topo b.Dconn.path);
  ignore conn;
  Ids.Slab.clear_id t.by_bid b.Dconn.bid

(* Admission fast-accepts on the O(1) conservative ceiling and falls back
   to the exact O(entries) scan only when the ceiling does not fit; the
   verdict is identical because the ceiling is never below the exact
   requirement and [can_set_spare] is monotone. *)
let backup_admissible t ~link info =
  match t.policy with
  | Brute_force _ -> true
  | Multiplexed ->
    let res = resources t in
    Rtchan.Resource.can_set_spare res link (Mux.upper_bound t.mux ~link info)
    || Rtchan.Resource.can_set_spare res link (Mux.required_with t.mux ~link info)

let admission_probe t info = Mux.probe t.mux info

let backup_admissible_probe t probe ~link =
  match t.policy with
  | Brute_force _ -> true
  | Multiplexed ->
    let res = resources t in
    Rtchan.Resource.can_set_spare res link (Mux.probe_upper_bound probe ~link)
    || Rtchan.Resource.can_set_spare res link (Mux.probe_required probe ~link)

let add_dconn t conn =
  if Hashtbl.mem t.dconns conn.Dconn.id then
    invalid_arg (Printf.sprintf "Netstate.add_dconn: duplicate id %d" conn.Dconn.id);
  Hashtbl.replace t.dconns conn.Dconn.id conn;
  Ids.Slab.set t.by_primary conn.Dconn.primary.Rtchan.Channel.id (Some conn)

let remove_dconn t id =
  match Hashtbl.find_opt t.dconns id with
  | None -> ()
  | Some conn ->
    List.iter (fun b -> unregister_backup t conn b) conn.Dconn.backups;
    Rtchan.Rnmp.teardown t.rnmp conn.Dconn.primary.Rtchan.Channel.id;
    bump_path t conn.Dconn.primary.Rtchan.Channel.path;
    Ids.Slab.clear_id t.by_primary conn.Dconn.primary.Rtchan.Channel.id;
    Hashtbl.remove t.dconns id

let set_primary t conn ch =
  Ids.Slab.clear_id t.by_primary conn.Dconn.primary.Rtchan.Channel.id;
  conn.Dconn.primary <- ch;
  Ids.Slab.set t.by_primary ch.Rtchan.Channel.id (Some conn)

let find t id = Hashtbl.find_opt t.dconns id
let dconns t = Hashtbl.fold (fun _ c acc -> c :: acc) t.dconns []
let dconn_count t = Hashtbl.length t.dconns

let spare_pool t =
  Array.init (Net.Topology.num_links t.topo) (fun l ->
      Rtchan.Resource.spare (resources t) l)

let backups_using t comp =
  let bids =
    match comp with
    | Net.Component.Link l -> Ids.Ivec.to_list_rev t.backups_on_link.(l)
    | Net.Component.Node v -> Ids.Ivec.to_list_rev t.backups_through_node.(v)
  in
  List.filter_map (fun bid -> Ids.Slab.get t.by_bid bid) bids

let conn_of_primary t cid = Ids.Slab.get t.by_primary cid

let conns_with_primary_on t comp =
  let ids = Rtchan.Rnmp.channels_disabled_by t.rnmp [ comp ] in
  List.filter_map (fun cid -> Ids.Slab.get t.by_primary cid) ids

let network_load t = Rtchan.Resource.network_load (resources t)
let spare_fraction t = Rtchan.Resource.spare_fraction (resources t)
