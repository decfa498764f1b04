(** Always-on bounded flight recorder.

    A preallocated ring of the last N trace events ({!Trace.create_ring}:
    O(1) overwrite, no growth — cheap enough to leave on for whole runs),
    plus a dump path: when something goes wrong (a [Cm.Audit] invariant
    breach, a quarantine, an exception escaping engine dispatch) the ring
    is written to a JSONL file so the failure report says "here are the
    last 4096 events before it happened" instead of just "it happened".

    Wiring: components take the recorder's ring through their
    [set_trace] entry points ([Cm.set_trace], [Link.set_trace]) exactly
    as they would a full telemetry trace; {!create} also installs the
    engine escape hook so crash dumps need no per-experiment code.

    Dump format: one header object
    [{"recorder", "reason", "ts_ns", "events", "dropped"}], then one
    JSON object per event (same schema as {!Trace.to_jsonl}).  Timestamps
    are virtual, so for a fixed seed a dump is byte-identical run after
    run. *)

type t

val create :
  Eventsim.Engine.t -> out_dir:string -> ?tag:string -> ?capacity:int -> unit -> t
(** A recorder ringing the last [capacity] events (default 4096); dumps
    land in [out_dir] (created on first dump) as
    [<tag>-<n>.dump.jsonl].  Installs the engine's escape hook: an
    exception escaping event dispatch dumps the ring (reason
    ["exception: …"]) before the exception propagates. *)

val trace : t -> Trace.t
(** The ring — hand this to the components to instrument. *)

val ensure_dir : string -> unit
(** Create a directory and any missing parents ([mkdir -p]); every
    artifact writer ([trace], [report], dumps) goes through it. *)

val dump : t -> reason:string -> string
(** Write the ring now; returns the file path.  Call on audit violations,
    quarantines, or any other "explain what just happened" trigger. *)

val dumps : t -> int
(** Dumps written so far. *)

val files : t -> string list
(** Paths written, oldest first. *)

val last_file : t -> string option
