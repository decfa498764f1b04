(** Shared plumbing for the paper-reproduction experiments. *)

open Cm_util

open Netsim

type telemetry_request = { period : Time.span; mutable captured : Telemetry.t list }
(** Ask the experiments to run instrumented: each simulated system gets a
    {!Telemetry.t} sampling every [period], and the instances are
    accumulated in [captured] (newest first) for the caller to export. *)

type params = {
  seed : int;
  full : bool;
  telemetry : telemetry_request option;
  defenses : bool;
  prof : bool;
  recorder : string option;
}
(** [seed] drives every RNG; [full] enables the long variants (e.g. the
    10^6-buffer point of Figs. 4–5); [telemetry] (default [None]) makes
    instrumented experiments wire up metrics / time series / tracing;
    [defenses] turns on the endpoint-fault defenses (feedback watchdog +
    misbehaviour auditor) in experiments built via {!create_cm} — off by
    default, matching the paper's trusting CM; [prof] arms the event-core
    profiler on engines built via {!create_engine} (summary goes to
    stderr — wall clock is nondeterministic); [recorder] (a directory)
    attaches a bounded flight ring via {!observe}, dumping the last events
    on faults. *)

val default_params : params
(** [seed = 42], [full = false], everything else off. *)

val create_engine : params -> unit -> Eventsim.Engine.t
(** The engine factory behind {!with_system}: arms the profiler (before
    any component closures exist, so [Engine.prof_tag] wraps them) when
    [params.prof]. *)

val request_telemetry : ?period:Time.span -> unit -> telemetry_request
(** A fresh request sampling every [period] (default 100 ms virtual). *)

val instrument :
  params ->
  engine:Eventsim.Engine.t ->
  ?links:(string * Link.t) list ->
  ?cm:Cm.t ->
  unit ->
  Telemetry.t option
(** Honor [params.telemetry] for one simulated system: create a telemetry
    instance on [engine], attach the named [links] and the [cm], record it
    in the request's [captured] list, and return it.  [None] (and zero
    work) when the run was not asked to trace. *)

(** {1 Simulated systems}

    Every experiment builds each simulated system (one engine, its
    network, its CMs) through {!with_system}, wires observability with
    {!observe} and builds CMs with {!create_cm}, so [prof], [recorder],
    [telemetry] and [defenses] reach every family alike. *)

type system = private {
  params : params;
  engine : Eventsim.Engine.t;  (** From {!create_engine}: profiler armed first. *)
  rng : Rng.t;  (** Seeded with [params.seed]. *)
  mutable telemetry : Telemetry.t option;  (** Set by {!observe} when [params.telemetry]. *)
  mutable recorder : Telemetry.Recorder.t option;
      (** Set by {!observe} when [params.recorder] and no telemetry. *)
}

val with_system : params -> (system -> 'a) -> 'a
(** [with_system params body] creates a fresh system and runs [body] on
    it.  When [body] returns (or raises) it stops the sampler of the
    telemetry {!observe} wired and, with [params.prof], prints the
    profiler summary to {e stderr} — never to stdout, which carries the
    seeded byte-diffed output. *)

val observe :
  system -> ?tag:string -> links:(string * Link.t) list -> ?cm:Cm.t -> unit -> unit
(** Wire the named [links], then the [cm] (gauges register in that
    order), once per system: full telemetry via {!instrument} when
    [params.telemetry] is set, otherwise a flight recorder (ring of the
    last 4096 trace events + crash escape hook; dumps named after [tag],
    default ["recorder"]) when [params.recorder] is set, otherwise
    nothing. *)

val create_cm :
  system ->
  ?host:Host.t ->
  ?mtu:int ->
  ?scheduler:Cm.Scheduler.factory ->
  ?controller:Cm.Controller.factory ->
  unit ->
  Cm.t
(** The experiments' only CM constructor: {!Cm.create} on the system's
    engine, honoring [params.defenses] ({!Cm.default_auditor} and
    {!Cm.Macroflow.default_watchdog} when on), attached to [host] when
    given.  [mtu], [scheduler] and [controller] pass through. *)

val pipe_links : Topology.pipe -> (string * Link.t) list
(** A pipe's two links for {!observe}: [["ab"; "ba"]], forward first. *)

val kbps : float -> float
(** Bits/s to the paper's KBytes/s. *)

val window_bps : Timeline.t -> from_:Time.t -> until:Time.t -> float
(** Bits/s carried by a byte-valued timeline over [\[from_, until)]. *)

val print_header : string -> unit
(** Banner line for one experiment's output. *)

val print_row : string -> unit
(** One data row (plain [print_endline], named for greppability). *)

module Json = Cm_util.Json
(** Deterministic JSON (alias of {!Cm_util.Json}: [%.6g] floats, NaN as
    [null]), so a seeded experiment's JSON is byte-identical across
    runs — the machine-readable channel for scenario results. *)

val measured_bulk :
  params ->
  driver:(Cm.t option -> Tcp.Conn.driver) ->
  bandwidth_bps:float ->
  delay:Time.span ->
  ?loss:float ->
  ?qdisc_limit:int ->
  ?costs:Costs.t ->
  ?duration:Time.span ->
  ?bytes:int ->
  unit ->
  float * float
(** One bulk TCP run on a fresh pipe; returns
    [(goodput_bps, sender_cpu_utilization)].  With [?bytes] the run ends
    when that much is delivered; otherwise it is time-limited by
    [duration] (default 30 s) with the goodput measured over the whole
    window. *)
