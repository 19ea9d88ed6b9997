(** Central BCP network state: topology, primary-channel reservations
    (RNMP), the backup-multiplexing tables, and the D-connection registry.

    This is the "planning" layer shared by the static evaluation engine
    (Tables 1–3, Figure 9) and the event-driven protocol simulator. *)

(** How spare bandwidth is sized on each link. *)
type spare_policy =
  | Multiplexed
      (** the paper's scheme: per-link requirement from the Π-sets *)
  | Brute_force of float
      (** Section 7.4 baseline: the same fixed spare (Mbps) on every link,
          regardless of network status *)

(** Dense-id allocation (watermark + LIFO recycling) and the flat
    vector/slab containers the state tables are built on, re-exported for
    callers assembling their own dense-id structures. *)
module Ids = Ids

type t

val create :
  ?lambda:float -> ?policy:spare_policy -> Net.Topology.t -> unit -> t
(** [lambda] defaults to 1e-4 (component failure probability per time
    unit); [policy] defaults to [Multiplexed]. *)

val set_self_check : t -> bool -> unit
(** Debug mode: cross-check the flat hot-path state against the reference
    recomputations on every mutation (currently {!Mux.set_self_check}).
    Off by default. *)

val link_version : t -> link:int -> int
(** Mutation counter of the link's admission-relevant state (primary
    reservation, spare sizing, mux table).  Speculative establishment
    records versions of consulted links and replays only if they still
    match. *)

val bump_link : t -> link:int -> unit
(** Record a mutation of the link's admission-relevant state.  Mutations
    driven through this module bump automatically; callers reserving or
    releasing primary bandwidth via RNMP directly must bump the path
    themselves (see {!bump_path}). *)

val bump_path : t -> Net.Path.t -> unit

val topology : t -> Net.Topology.t
val rnmp : t -> Rtchan.Rnmp.t
val resources : t -> Rtchan.Resource.t
val mux : t -> Mux.t
val lambda : t -> float
val policy : t -> spare_policy

val fresh_backup_id : t -> int

val add_dconn : t -> Dconn.t -> unit
(** Register an established connection (used by {!Establish}). *)

val remove_dconn : t -> int -> unit
(** Tear down a connection completely: primary bandwidth, every backup's
    multiplexing registration, and the registry entry. *)

val set_primary : t -> Dconn.t -> Rtchan.Channel.t -> unit
(** Point a registered connection's primary at another RNMP channel and
    re-key the primary-channel index ({!conn_of_primary},
    {!conns_with_primary_on}) from the old channel id to the new one.
    Reservations are the caller's: this neither tears down the old
    channel nor reserves the new one. *)

val find : t -> int -> Dconn.t option
val dconns : t -> Dconn.t list
val dconn_count : t -> int

val register_backup : t -> Dconn.t -> Dconn.backup -> unit
(** Enter a routed backup into the multiplexing tables of every link on
    its path and update the links' spare reservations per the policy. *)

val unregister_backup : t -> Dconn.t -> Dconn.backup -> unit
(** Remove from the tables and shrink spare reservations accordingly. *)

val backup_admissible : t -> link:int -> Mux.backup_info -> bool
(** Could the link absorb this backup without violating
    primary + spare ≤ capacity?  Always true under [Brute_force]. *)

val admission_probe : t -> Mux.backup_info -> Mux.probe
(** Batched admission for one candidate backup across many links: the
    returned probe memoizes each link's answer, so routing searches
    should probe once per candidate rather than call {!backup_admissible}
    per relaxation. *)

val backup_admissible_probe : t -> Mux.probe -> link:int -> bool
(** {!backup_admissible} through a probe (memoized per link). *)

val backup_info_of : t -> Dconn.t -> Dconn.backup -> Mux.backup_info

val refresh_spare : t -> link:int -> unit
(** Re-derive the link's spare reservation from the mux table (after
    activations or closures). *)

val spare_pool : t -> float array
(** Snapshot of per-link spare bandwidth indexed by link id — the pools
    backups draw from during recovery. *)

val backups_using : t -> Net.Component.t -> (Dconn.t * Dconn.backup) list
(** Backups whose path crosses the component. *)

val conn_of_primary : t -> Rtchan.Channel.id -> Dconn.t option
(** The connection registered (by {!add_dconn}) with the RNMP channel
    [cid] as its primary; a lookup in a flat table, without allocating. *)

val conns_with_primary_on : t -> Net.Component.t -> Dconn.t list
(** Connections whose primary path crosses the component. *)

val network_load : t -> float
val spare_fraction : t -> float
