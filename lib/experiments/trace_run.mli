(** Instrumented experiment runs ([cm_expt trace]).

    Runs one family sub-run ({!Family.sub_runs}) with telemetry wired up
    ({!Exp_common.instrument}) and exports the four artifacts: the
    structured trace as JSONL and as a Chrome [trace_event] document
    (loadable in Perfetto), the CM-internals time series as CSV, and the
    metrics snapshot as JSON.

    Same experiment + same seed ⇒ byte-identical artifacts (virtual-time
    stamps, [%.6g] floats) — checked in [test_telemetry] and in CI. *)

val experiments : string list
(** Every sub-run name that can run instrumented (e.g. ["fig6"],
    ["fig8"], ["scenario_outage"]). *)

val capture : expt:string -> seed:int -> Telemetry.t list
(** Run one sub-run instrumented and return the telemetry instances it
    captured, oldest first.  Raises [Invalid_argument] on an unknown
    name. *)

type artifact = { a_name : string; a_path : string; a_bytes : int }
(** One file written by {!run} (or by [Report_run.run]). *)

val write_artifact : out_dir:string -> string -> string -> artifact
(** [write_artifact ~out_dir name contents] writes [out_dir/name] in
    binary mode ([out_dir] must exist). *)

val run : ?out_dir:string -> expt:string -> seed:int -> unit -> artifact list
(** Run instrumented and write [<expt>.trace.jsonl], [<expt>.chrome.json],
    [<expt>.series.csv] and [<expt>.metrics.json] into [out_dir] (default
    ["traces"], created with its parents if missing). *)

val print : artifact list -> unit
(** Human summary of what was written. *)
