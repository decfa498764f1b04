(** The experiment-family registry.

    One record per family of the paper-reproduction evaluation (Figs. 3–10,
    Table 1, the §6 P-HTTP study, the ablations and the extensions).  It is
    the only list of families: [cm_expt] builds its per-family subcommands,
    [all] and [spec] from it, the bench times {!distinct}, [cm_expt trace]
    resolves {!sub_runs} by name and [cm_expt report] reports every family
    with sub-runs.  Adding a family is adding one entry to {!all}. *)

type t = {
  name : string;  (** The cm_expt subcommand. *)
  doc : string;  (** One-line description (the subcommand's help). *)
  run : Exp_common.params -> unit;  (** Run every experiment and print the tables/JSON. *)
  specs : (string * Cm_spec.Spec.t) list;
      (** Sub-spec name → spec-DSL source; [[]] for a handwritten family. *)
  sub_runs : (string * (Exp_common.params -> unit)) list;
      (** Named instrumented runs for [trace] and [report]: each builds its
          simulated systems through {!Exp_common.instrument}, so running it
          with [params.telemetry] set captures their telemetry. *)
}

val all : t list
(** Every family, in [cm_expt all] order. *)

val find : string -> t option

val distinct : t list
(** {!all} with families sharing one [run] kept once (Figs. 4 and 5 are
    one run): what [cm_expt all] and the bench execute. *)

val sub_runs : (string * (Exp_common.params -> unit)) list
(** Every family's sub-runs, in registry order. *)
