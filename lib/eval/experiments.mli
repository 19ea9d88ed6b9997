(** The experiment registry: one entry per table-producing experiment of
    the evaluation, read by both programs that run them.  [bcp_sim] builds
    one subcommand per entry of {!all}; the benchmark harness runs the
    {!full} and {!reduced} suites, which are plain data over the same
    entries. *)

(** Everything an experiment may read.  Each entry reads the fields
    named by its {!t.params}, plus [show_setup] for [delay]. *)
type args = {
  network : Setup.network;
  seed : int;
  backups : int;
  double_sample : int option;
      (** sampled double-node scenarios; [None]: every pair (the
          [baseline] experiment then samples 300) *)
  scenarios : int;
  detector : [ `Oracle | `Heartbeat ];
  loss : float option;
      (** [chaos]: run one impairment level with this loss rate instead of
          the default ladder *)
  gray : float;  (** [chaos]: gray-link fraction of that single level *)
  horizon : float option;  (** [chaos]: simulated time past each fault *)
  show_setup : bool;
      (** [delay]: print the establishment summary line before its table *)
}

val defaults : args
(** The CLI defaults: 8x8 torus, seed 42, one backup, every double-node
    pair, 16 scenarios, oracle detector, the default impairment ladder
    with no gray links, the default horizon, and the setup line shown. *)

(** A command-line parameter, with its flag, converter and default. *)
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
  name : string;  (** the [bcp_sim] subcommand *)
  doc : string;
  params : param list;  (** the fields of {!args} the experiment reads *)
  run : args -> Report.t list;
}

val all : t list
(** [fig9], [table1], [table2], [table3], [delay], [schemes], [priority],
    [hotspot], [routing], [fig8], [sensitivity], [baseline], [multi],
    [markov], [chaos]. *)

val coverage : t
(** The scheme-coverage half of [schemes] alone (the reduced suite's
    Section 4.2 step); not a subcommand. *)

val term : t -> args Cmdliner.Term.t
(** The entry's parameters as command-line options over {!defaults}.
    Counts ([--backups], [--scenarios], [--double-sample]) must be
    [>= 0]; anything else is a usage error. *)

val network_arg : Setup.network Cmdliner.Term.t
val seed_arg : int Cmdliner.Term.t
val backups_arg : int Cmdliner.Term.t
val double_sample_arg : int option Cmdliner.Term.t
val scenarios_arg : int Cmdliner.Term.t
val detector_arg : [ `Oracle | `Heartbeat ] Cmdliner.Term.t
val loss_arg : float option Cmdliner.Term.t
val gray_arg : float Cmdliner.Term.t
val horizon_arg : float option Cmdliner.Term.t
(** The options behind {!term}, for commands outside the registry. *)

val chaos_levels : loss:float option -> gray:float -> Chaos.level list option
(** The single impairment level selected by [--loss]/[--gray]: loss [p],
    duplication [p/2], 0.5 ms jitter; [None] without [--loss]. *)

(** {1 Suites} *)

type step = string * t * args
(** A heading, an entry and the arguments it runs with. *)

val full : step list
(** Every table and figure of the paper at full scale (8x8 torus and
    mesh), 24 tables. *)

val reduced : step list
(** The same experiments on 4x4 networks, at CI scale. *)

val run_step : ?seed:int -> ?double_sample:int -> step -> Report.t list
(** Run a step's entry with [seed] and, when the entry reads it,
    [double_sample] in place of the step's own values. *)
