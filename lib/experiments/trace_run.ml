(* Instrumented experiment runs: execute one family sub-run with telemetry
   wired up and export the artifacts (JSONL trace, Chrome trace_event
   document, time-series CSV, metrics snapshot).

   Determinism contract: everything below is driven by the virtual clock
   and the seeded RNG and serialized through [Cm_util.Json], so the same
   [--expt]/[--seed] pair produces byte-identical files — asserted by
   test_telemetry and re-checked in CI by running twice and diffing. *)

open Exp_common

let experiments = List.map fst Family.sub_runs

(* Run instrumented and return the captured telemetry (oldest first: the
   first simulated system an experiment builds comes first). *)
let capture ~expt ~seed =
  let run =
    match List.assoc_opt expt Family.sub_runs with
    | Some run -> run
    | None ->
        invalid_arg
          (Printf.sprintf "trace: unknown experiment %S (known: %s)" expt
             (String.concat ", " experiments))
  in
  (* packet ids are process-global and appear in the trace: restart them
     so repeated in-process captures stay byte-identical *)
  Netsim.Packet.reset_ids ();
  let req = request_telemetry () in
  run { default_params with seed; telemetry = Some req };
  match List.rev req.captured with
  | [] -> failwith (Printf.sprintf "trace: experiment %S captured no telemetry" expt)
  | tels -> tels

type artifact = { a_name : string; a_path : string; a_bytes : int }

let write_artifact ~out_dir name contents =
  let path = Filename.concat out_dir name in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  { a_name = name; a_path = path; a_bytes = String.length contents }

let run ?(out_dir = "traces") ~expt ~seed () =
  let tel = List.hd (capture ~expt ~seed) in
  Telemetry.Recorder.ensure_dir out_dir;
  let emit suffix contents = write_artifact ~out_dir (expt ^ suffix) contents in
  [
    emit ".trace.jsonl" (Telemetry.export_jsonl tel);
    emit ".chrome.json" (Telemetry.export_chrome tel);
    emit ".series.csv" (Telemetry.export_csv tel);
    emit ".metrics.json" (Telemetry.export_metrics_json tel);
  ]

let print artifacts =
  print_header "Trace artifacts";
  List.iter
    (fun a -> print_row (Printf.sprintf "  %-28s %8d bytes  %s" a.a_name a.a_bytes a.a_path))
    artifacts
