(** Run-report driver ([cm_expt report]).

    Runs one experiment family's sub-runs ({!Family.t.sub_runs})
    instrumented, feeds each captured telemetry instance through the
    health analyzer ({!Cm_report.Analyze}) and exports
    [<expt>.report.json] (machine channel, also printed to stdout) plus
    [<expt>.report.md] (human channel).

    Same family + same seed ⇒ byte-identical report JSON (the analyzer
    only consumes virtual-time data) — re-checked in CI by running twice
    and diffing. *)

val experiments : string list
(** Families that can be reported on: every family with sub-runs. *)

val analyze_all : expt:string -> seed:int -> (string * Cm_report.Analyze.t) list
(** Run the family instrumented and analyze every captured system;
    returns [(sub_run_name, report)] pairs, oldest system first.  Raises
    [Invalid_argument] on an unknown family. *)

val report_json : (string * Cm_report.Analyze.t) list -> Cm_util.Json.t
(** Single report → its object; several → an object keyed by sub-run. *)

val report_markdown : expt:string -> (string * Cm_report.Analyze.t) list -> string
(** Markdown document with one section per sub-run. *)

type artifact = Trace_run.artifact = { a_name : string; a_path : string; a_bytes : int }
(** One file written by {!run}. *)

val run : ?out_dir:string -> expt:string -> seed:int -> unit -> artifact list
(** Run, analyze and write [<expt>.report.json] / [<expt>.report.md] into
    [out_dir] (default ["reports"], created with its parents if missing);
    the JSON is also printed to stdout. *)

val print : artifact list -> unit
(** Human summary of what was written (stderr — stdout carries JSON). *)

val check_dump : string -> int
(** [cm_expt report --check-dump FILE]: validate a flight-recorder dump —
    every non-blank line must parse as JSON.  Prints a summary on stdout
    and returns 0, or prints each bad line (or the open error) on stderr
    and returns 1. *)
