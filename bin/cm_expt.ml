(* cm_expt — command-line runner for the paper-reproduction experiments.

   One subcommand per experiment family of the registry
   ([Experiments.Family.all]), plus [all], [trace], [report], [scale],
   [spec] and [soak]. *)

open Cmdliner

let params ?(prof = false) ?recorder seed full =
  { Experiments.Exp_common.default_params with seed; full; prof; recorder }

let seed_arg =
  let doc = "Seed for every random number generator (runs are deterministic)." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let full_arg =
  let doc =
    "Run the long variants (e.g. the 10^6-buffer point of Figs. 4-5 and the 200k-packet Fig. 6)."
  in
  Arg.(value & flag & info [ "full" ] ~doc)

let prof_arg =
  let doc =
    "Arm the event-core profiler and print its summary (per-category dispatch counts, \
     sampled wall attribution, GC deltas, wheel/pool occupancy) to stderr after each \
     simulated system finishes.  Stdout stays byte-identical: wall clock is nondeterministic."
  in
  Arg.(value & flag & info [ "prof" ] ~doc)

let recorder_arg =
  let doc =
    "Attach an always-on bounded flight recorder (ring of the last 4096 trace events) to \
     every simulated system and dump the ring as JSONL into $(docv) when a defense fires, \
     an audit breach appears, or an exception escapes the event loop."
  in
  Arg.(value & opt (some string) None & info [ "recorder" ] ~docv:"DIR" ~doc)

module Family = Experiments.Family

let make_cmd (f : Family.t) =
  let action seed full prof recorder = f.run (params ~prof ?recorder seed full) in
  Cmd.v (Cmd.info f.name ~doc:f.doc)
    Term.(const action $ seed_arg $ full_arg $ prof_arg $ recorder_arg)

(* [trace] and [report] both pick a registry name (fig6 by default) and
   write into a directory *)
let expt_arg what names =
  let doc = what ^ ": " ^ String.concat ", " names ^ "." in
  Arg.(
    value
    & opt (enum (List.map (fun e -> (e, e)) names)) "fig6"
    & info [ "e"; "expt" ] ~docv:"EXPT" ~doc)

let out_arg what default =
  let doc = "Directory for the " ^ what ^ " (created with its parents if missing)." in
  Arg.(value & opt string default & info [ "o"; "out" ] ~docv:"DIR" ~doc)

let scale_cmd =
  let doc =
    "Many-flow scalability: a web-server-like workload at N concurrent flows across N/32 \
     macroflows, run under both schedulers.  Reports virtual-time metrics (grants, events, \
     request-to-grant latency percentiles) as deterministic JSON — byte-identical for a \
     fixed seed; wall-clock events/sec lives in the bench JSON instead."
  in
  let flows_arg =
    let doc =
      "Run a single flow count instead of the standard family (64, 512, 4096, 16384)."
    in
    Arg.(value & opt (some int) None & info [ "n"; "flows" ] ~docv:"N" ~doc)
  in
  let action seed full flows =
    let p = params seed full in
    let sizes = match flows with Some n -> Some [ n ] | None -> None in
    Experiments.Scale.print p (Experiments.Scale.run ?sizes p)
  in
  Cmd.v (Cmd.info "scale" ~doc) Term.(const action $ seed_arg $ full_arg $ flows_arg)

let trace_cmd =
  let doc =
    "Run one experiment instrumented and export telemetry artifacts: a JSONL event trace, a \
     Chrome trace_event file (open in Perfetto), the CM-internals time series as CSV, and a \
     metrics snapshot.  Byte-identical for a fixed seed."
  in
  let action expt seed out_dir =
    Experiments.Trace_run.print (Experiments.Trace_run.run ~out_dir ~expt ~seed ())
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const action
      $ expt_arg "Experiment to trace" Experiments.Trace_run.experiments
      $ seed_arg $ out_arg "artifacts" "traces")

let report_cmd =
  let doc =
    "Run one experiment family instrumented and emit a run-health report: per-flow \
     bottleneck attribution (grant/cwnd/queue/link-down), Jain fairness, stall windows, \
     drop-cause breakdown and layer-flap score, each with a pass/warn verdict.  Writes \
     <expt>.report.json and <expt>.report.md; the JSON also goes to stdout and is \
     byte-identical for a fixed seed.  With [--check-dump FILE] instead validates a flight- \
     recorder dump (every line must parse as JSON; exit 1 otherwise)."
  in
  let check_dump_arg =
    let doc =
      "Validate the flight-recorder dump $(docv): every line must parse as a JSON document."
    in
    Arg.(value & opt (some string) None & info [ "check-dump" ] ~docv:"FILE" ~doc)
  in
  let action expt seed out_dir dump =
    match dump with
    | Some path -> exit (Experiments.Report_run.check_dump path)
    | None ->
        Experiments.Report_run.print (Experiments.Report_run.run ~out_dir ~expt ~seed ())
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const action
      $ expt_arg "Family to report on" Experiments.Report_run.experiments
      $ seed_arg $ out_arg "report files" "reports" $ check_dump_arg)

let spec_cmd =
  let doc =
    "Inspect the spec-DSL sources behind experiment families.  [--list] shows every family \
     with its provenance (dsl vs handwritten), [--check FAMILY] runs the static checks and \
     reports diagnostics, [--dump FAMILY] prints a JSON summary of the compiled topology."
  in
  let list_arg =
    let doc = "List every experiment family with its spec provenance." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let check_arg =
    let doc = "Run the static checks for $(docv) and report diagnostics (exit 1 on failure)." in
    Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FAMILY" ~doc)
  in
  let dump_arg =
    let doc = "Print a JSON summary of $(docv)'s compiled topology." in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FAMILY" ~doc)
  in
  let module Check = Cm_spec.Check in
  let list_families () =
    List.iter
      (fun (f : Family.t) ->
        Printf.printf "%-18s %s\n" f.name (if f.specs = [] then "handwritten" else "dsl"))
      Family.all;
    Printf.printf "%-18s %s\n" (Cmd.name scale_cmd) "handwritten"
  in
  let with_specs family k =
    match Family.find family with
    | Some { specs = _ :: _ as specs; _ } -> k specs
    | Some _ ->
        Printf.eprintf "cm_expt spec: family %s is handwritten OCaml — no spec to inspect.\n"
          family;
        1
    | None ->
        Printf.eprintf "cm_expt spec: unknown family %s (try --list).\n" family;
        1
  in
  let check_family family =
    with_specs family (fun specs ->
        List.fold_left
          (fun rc (sub, spec) ->
            match Check.check spec with
            | [] ->
                Printf.printf "%s: ok\n" sub;
                rc
            | diags ->
                List.iter (fun d -> Printf.eprintf "%s: %s\n" sub (Check.diag_str d)) diags;
                1)
          0 specs)
  in
  let dump_family family =
    with_specs family (fun specs ->
        let summaries =
          List.filter_map
            (fun (sub, spec) ->
              match Check.elaborate spec with
              | Ok ir -> Some (sub, Check.summary_json ir)
              | Error diags ->
                  List.iter (fun d -> Printf.eprintf "%s: %s\n" sub (Check.diag_str d)) diags;
                  None)
            specs
        in
        if List.length summaries <> List.length specs then 1
        else begin
          let json =
            match summaries with [ (_, j) ] -> j | l -> Experiments.Exp_common.Json.Obj l
          in
          print_endline (Experiments.Exp_common.Json.to_string json);
          0
        end)
  in
  let action list check dump =
    let rc =
      match (list, check, dump) with
      | _, None, None ->
          list_families ();
          0
      | _, Some f, None -> check_family f
      | _, None, Some f -> dump_family f
      | _, Some cf, Some df ->
          let rc = check_family cf in
          let rc' = dump_family df in
          max rc rc'
    in
    if rc <> 0 then exit rc
  in
  Cmd.v (Cmd.info "spec" ~doc) Term.(const action $ list_arg $ check_arg $ dump_arg)

let soak_cmd =
  let doc =
    "Seeded chaos soak: draw a well-formed random spec (dumbbell + bulk flows) composed with \
     random network, control-plane and application fault schedules, and run it under the \
     invariant oracles (auditor sweep incl. grant-ledger skew, flow/timer leaks, bounded \
     engine backlog, run-twice byte-determinism).  Failures are shrunk to a minimal \
     configuration and a one-line reproducer is printed.  Exit 1 on any oracle breach."
  in
  let count_arg =
    let doc = "Run $(docv) consecutive seeds starting at --seed." in
    Arg.(value & opt int 1 & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let canary_arg =
    let doc =
      "Mutation canary: deliberately re-introduce a grant leak in the close path \
       (Macroflow.canary_grant_leak) — the soak MUST fail, proving the oracles catch a \
       real accounting bug."
    in
    Arg.(value & flag & info [ "canary" ] ~doc)
  in
  let action seed count canary =
    let failures = ref 0 in
    for s = seed to seed + count - 1 do
      match Cm_soak.Soak.run_seed ~canary s with
      | None -> Printf.printf "seed %d: ok\n%!" s
      | Some f ->
          incr failures;
          Printf.printf "seed %d: FAIL\n%!" s;
          List.iter (fun v -> Printf.printf "  %s\n" v) f.Cm_soak.Soak.f_failures;
          Printf.printf "  %s\n" (Cm_soak.Soak.repro_line ~canary f);
          Printf.printf "  %s\n%!" (Cm_util.Json.to_string (Cm_soak.Soak.failure_json ~canary f))
    done;
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "soak" ~doc) Term.(const action $ seed_arg $ count_arg $ canary_arg)

let all_cmd =
  let doc = "Run every experiment in order." in
  let action seed full =
    let p = params seed full in
    List.iter (fun (f : Family.t) -> f.run p) Family.distinct
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const action $ seed_arg $ full_arg)

let () =
  let doc = "Reproduce the Congestion Manager paper's tables and figures" in
  let info = Cmd.info "cm_expt" ~version:"1.0" ~doc in
  let group =
    Cmd.group info
      (all_cmd :: trace_cmd :: report_cmd :: scale_cmd :: spec_cmd :: soak_cmd
      :: List.map make_cmd Family.all)
  in
  exit (Cmd.eval group)
