type order = By_id | Shuffled of Sim.Prng.t | By_priority

type conn_outcome = Recovered of int | Mux_failure | No_healthy_backup

type result = {
  affected : int;
  excluded : int;
  recovered : int;
  mux_failures : int;
  no_healthy_backup : int;
  outcomes : (int * conn_outcome) list;
  per_degree : (int * (int * int)) list;
}

let r_fast r =
  if r.affected = 0 then 100.0 else Sim.Stats.ratio r.recovered r.affected

let r_fast_of_degree r degree =
  match List.assoc_opt degree r.per_degree with
  | None | Some (0, _) -> 100.0
  | Some (affected, recovered) -> Sim.Stats.ratio recovered affected

(* ---------------- domain-local scratch ---------------- *)

(* Flat per-call state, grown to the largest topology and connection id
   seen on the domain and never cleared: each call takes a fresh [epoch],
   so a mark or stamp from an earlier call is stale.
   - [node_mark.(v) = epoch] iff node [v] failed (likewise [link_mark]);
   - [pool.(l)] is link [l]'s spare left after this call's activations
     iff [pool_stamp.(l) = epoch]; otherwise the pool is untouched and
     reads from the netstate;
   - [conn_mark.(id) = epoch] iff connection [id] was met on a failed
     component's channel list; [conn_at.(id)] then holds it until the
     call collects it.
   At most one live call per domain: [simulate] never nests. *)
type scratch = {
  mutable epoch : int;
  mutable node_mark : int array;
  mutable link_mark : int array;
  mutable pool : float array;
  mutable pool_stamp : int array;
  mutable conn_mark : int array;
  mutable conn_at : Dconn.t option array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        epoch = 0;
        node_mark = [||];
        link_mark = [||];
        pool = [||];
        pool_stamp = [||];
        conn_mark = [||];
        conn_at = [||];
      })

(* [a] extended to at least [n] slots filled with [fill], keeping its
   contents. *)
let grow a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Take a fresh epoch and mark [failed] on the domain's scratch. *)
let acquire topo failed =
  let s = Domain.DLS.get scratch_key in
  let nn = Net.Topology.num_nodes topo and nl = Net.Topology.num_links topo in
  s.node_mark <- grow s.node_mark nn (-1);
  s.link_mark <- grow s.link_mark nl (-1);
  s.pool <- grow s.pool nl 0.0;
  s.pool_stamp <- grow s.pool_stamp nl (-1);
  s.epoch <- s.epoch + 1;
  List.iter
    (fun c ->
      let marks, id, count =
        match c with
        | Net.Component.Node v -> (s.node_mark, v, nn)
        | Net.Component.Link l -> (s.link_mark, l, nl)
      in
      if id < 0 || id >= count then
        invalid_arg
          (Printf.sprintf "Recovery: failed component %s is outside the topology"
             (Net.Component.to_string c));
      marks.(id) <- s.epoch)
    failed;
  s

let node_failed s v = s.node_mark.(v) = s.epoch

let rec links_cross_failure s topo links k =
  k < Array.length links
  &&
  let l = links.(k) in
  s.link_mark.(l) = s.epoch
  || node_failed s (Net.Topology.link topo l).Net.Topology.dst
  || links_cross_failure s topo links (k + 1)

(* Does [path] cross a failed component?  Walks the source, then each
   link and the node it enters. *)
let crosses_failure s topo (path : Net.Path.t) =
  node_failed s path.Net.Path.src
  || links_cross_failure s topo path.Net.Path.links 0

(* ---------------- affected connections ---------------- *)

(* Reads each failed component's RNMP channel list in place.  A
   connection met again (on a second failed component, or a component
   listed twice) is already stamped and skipped, so duplicates go
   without a sort or a table.  One descending scan over the met id range
   then conses the connections into ascending id order and drops those
   with a failed end node.  [conn_at] stores the netstate's own
   [Some conn] cell, so nothing is allocated per connection met, and is
   read only where this call's stamp says it wrote. *)
let collect ns s failed =
  let rnmp = Netstate.rnmp ns in
  let lo = ref max_int and hi = ref (-1) in
  let meet cid =
    match Netstate.conn_of_primary ns cid with
    | None -> ()
    | Some conn as cell ->
      let id = conn.Dconn.id in
      if id < 0 then
        invalid_arg (Printf.sprintf "Recovery: negative connection id %d" id);
      if id >= Array.length s.conn_mark then begin
        s.conn_mark <- grow s.conn_mark (id + 1) (-1);
        s.conn_at <- grow s.conn_at (id + 1) None
      end;
      if s.conn_mark.(id) <> s.epoch then begin
        s.conn_mark.(id) <- s.epoch;
        s.conn_at.(id) <- cell;
        lo := Int.min !lo id;
        hi := Int.max !hi id
      end
  in
  List.iter
    (function
      | Net.Component.Link l -> List.iter meet (Rtchan.Rnmp.channels_on_link rnmp l)
      | Net.Component.Node v ->
        List.iter meet (Rtchan.Rnmp.channels_through_node rnmp v))
    failed;
  let considered = ref [] and excluded = ref 0 in
  for id = !hi downto !lo do
    if s.conn_mark.(id) = s.epoch then
      match s.conn_at.(id) with
      | None -> ()
      | Some conn ->
        s.conn_at.(id) <- None;
        if node_failed s conn.Dconn.src || node_failed s conn.Dconn.dst then
          incr excluded
        else considered := conn :: !considered
  done;
  (!considered, !excluded)

let affected_conns ns ~failed =
  collect ns (acquire (Netstate.topology ns) failed) failed

(* ---------------- activation ---------------- *)

let eps = 1e-9

let pool_of s res l =
  if s.pool_stamp.(l) = s.epoch then s.pool.(l) else Rtchan.Resource.spare res l

let rec fits s res links bw k =
  k >= Array.length links
  || (pool_of s res links.(k) +. eps >= bw && fits s res links bw (k + 1))

(* First standby backup clear of the failures whose every link still has
   [bw] of spare; its draw is deducted from the call's pools. *)
let rec activate s topo res bw any_healthy = function
  | [] -> if any_healthy then Mux_failure else No_healthy_backup
  | b :: rest ->
    let path = b.Dconn.path in
    if b.Dconn.state <> Dconn.Standby || crosses_failure s topo path then
      activate s topo res bw any_healthy rest
    else if fits s res path.Net.Path.links bw 0 then begin
      Array.iter
        (fun l ->
          s.pool.(l) <- pool_of s res l -. bw;
          s.pool_stamp.(l) <- s.epoch)
        path.Net.Path.links;
      Recovered b.Dconn.serial
    end
    else activate s topo res bw true rest

(* [per_degree] (ascending degree) with one more affected connection of
   degree [d], recovered iff [r = 1]. *)
let rec tally d r = function
  | (d', counts) :: rest when d' < d -> (d', counts) :: tally d r rest
  | (d', (a, v)) :: rest when d' = d -> (d, (a + 1, v + r)) :: rest
  | rest -> (d, (1, r)) :: rest

let min_nu conn =
  List.fold_left (fun m b -> Float.min m b.Dconn.nu) infinity conn.Dconn.backups

let simulate ?(order = By_id) ns ~failed =
  Sim.Prof.span "recovery.simulate" @@ fun () ->
  let topo = Netstate.topology ns and res = Netstate.resources ns in
  let lambda = Netstate.lambda ns in
  let s = acquire topo failed in
  let considered, excluded = collect ns s failed in
  let ordered =
    match order with
    | By_id -> considered
    | Shuffled rng -> Sim.Prng.shuffle_list rng considered
    | By_priority ->
      List.stable_sort
        (fun a b -> Float.compare (min_nu a) (min_nu b))
        considered
  in
  let affected = ref 0 and recovered = ref 0 in
  let mux_failures = ref 0 and no_healthy = ref 0 and per_degree = ref [] in
  let outcomes =
    List.map
      (fun conn ->
        let o =
          activate s topo res (Dconn.bandwidth conn) false conn.Dconn.backups
        in
        let r =
          match o with
          | Recovered _ -> 1
          | Mux_failure ->
            incr mux_failures;
            0
          | No_healthy_backup ->
            incr no_healthy;
            0
        in
        incr affected;
        recovered := !recovered + r;
        per_degree := tally (Dconn.mux_degree conn ~lambda) r !per_degree;
        (conn.Dconn.id, o))
      ordered
  in
  Sim.Prof.count ~by:!affected "recovery.affected";
  {
    affected = !affected;
    excluded;
    recovered = !recovered;
    mux_failures = !mux_failures;
    no_healthy_backup = !no_healthy;
    outcomes;
    per_degree = !per_degree;
  }
