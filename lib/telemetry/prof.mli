(** Event-core profiler, rendering side.

    The measurement lives in {!Eventsim.Engine} ([enable_prof] /
    [prof_tag] / [prof_report]): exact per-category dispatch counters,
    sampled wall-clock attribution (one [gettimeofday] every
    [2^sample_shift] dispatches), GC deltas ([Gc.minor_words] for minor
    words, [Gc.quick_stat] for the rest), and
    queue/pool occupancy counters.  This module turns a report into JSON
    (for the bench file) and a human-readable summary (for stderr).

    Wall-clock and GC figures are nondeterministic; never route them into
    a seeded-JSON channel that CI byte-diffs. *)

val enabled : Eventsim.Engine.t -> bool

val report_json : Eventsim.Engine.prof_report -> Cm_util.Json.t
(** Render one report. *)

val to_json : Eventsim.Engine.t -> Cm_util.Json.t
(** The engine's profile so far ({!Cm_util.Json.Null} if the profiler is
    off). *)

val summary : Eventsim.Engine.t -> string
(** Multi-line human summary (dispatch shares, sampled wall split, GC,
    queue occupancy). *)
