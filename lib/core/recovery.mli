(** Static failure-recovery engine: given an established network and a set
    of failed components, decide which D-connections recover fast via
    backup activation (the paper's R_fast metric, Tables 1–3).

    Activation draws bandwidth from each link's spare pool; when a pool
    runs dry the remaining activations on that link suffer *multiplexing
    failures*.  Connections whose end nodes fail are excluded, exactly as
    in Section 7.2.  The engine does not mutate the network state, so many
    failure scenarios can be evaluated on one established network.

    Each call works on domain-local scratch arrays sized to the largest
    topology and connection id seen on the domain (connection ids are
    expected dense, as request indices are), so calls on different
    domains (a {!Sim.Pool} sweep) run independently.  A failed component
    may be listed more than once; it counts once. *)

(** Order in which failed connections attempt activation. *)
type order =
  | By_id  (** establishment order (deterministic default) *)
  | Shuffled of Sim.Prng.t  (** random contention order *)
  | By_priority
      (** ν ascending: higher-priority (smaller-ν) connections first —
          models the priority-based activation of Section 4.3 *)

type conn_outcome =
  | Recovered of int  (** serial of the activated backup *)
  | Mux_failure  (** healthy backup(s) existed but spare pools ran dry *)
  | No_healthy_backup  (** every backup was hit by the failures (or none) *)

type result = {
  affected : int;  (** failed primaries considered (end-node cases excluded) *)
  excluded : int;  (** connections dropped because an end node failed *)
  recovered : int;
  mux_failures : int;
  no_healthy_backup : int;
  outcomes : (int * conn_outcome) list;  (** conn id -> outcome *)
  per_degree : (int * (int * int)) list;
      (** mux degree -> (affected, recovered), ascending degree *)
}

val r_fast : result -> float
(** 100 × recovered / affected; 100 when nothing was affected. *)

val r_fast_of_degree : result -> int -> float
(** R_fast restricted to connections of one multiplexing degree
    (Table 2); 100 when none were affected. *)

val simulate :
  ?order:order -> Netstate.t -> failed:Net.Component.t list -> result
(** Runs inside the [Sim.Prof] span ["recovery.simulate"] and adds
    [affected] to the counter ["recovery.affected"].
    @raise Invalid_argument
      if a failed component is not in the topology, or an affected
      connection has a negative id. *)

val affected_conns :
  Netstate.t -> failed:Net.Component.t list -> Dconn.t list * int
(** Connections whose primary is disabled, in ascending [Dconn.id] order,
    with the end-node failures removed; and the number removed.
    @raise Invalid_argument
      if a failed component is not in the topology, or an affected
      connection has a negative id. *)
