(* Run-report driver: run one experiment family instrumented, feed the
   captured telemetry through the health analyzer (lib/report), and
   export the verdicts as JSON + markdown.

   Determinism contract: the analyzer consumes only virtual-time data
   (sampler columns, metric snapshots, trace events) and renders through
   [Cm_util.Json], so the same [--expt]/[--seed] pair produces
   byte-identical report JSON — CI runs each family twice and diffs. *)

open Exp_common

let experiments =
  List.filter_map
    (fun f -> match f.Family.sub_runs with [] -> None | _ -> Some f.Family.name)
    Family.all

(* One capture = one (sub-run name, telemetry) list, oldest first: each
   of the family's sub-runs reports under its own name. *)
let capture ~expt ~seed =
  match Family.find expt with
  | Some { Family.sub_runs = _ :: _ as subs; _ } ->
      List.concat_map
        (fun (name, _) -> List.map (fun tel -> (name, tel)) (Trace_run.capture ~expt:name ~seed))
        subs
  | _ ->
      invalid_arg
        (Printf.sprintf "report: unknown experiment %S (known: %s)" expt
           (String.concat ", " experiments))

let analyze_all ~expt ~seed =
  List.map
    (fun (name, tel) -> (name, Cm_report.Analyze.analyze (Cm_report.Analyze.of_telemetry tel)))
    (capture ~expt ~seed)

let report_json reports =
  match reports with
  | [ (_, r) ] -> Cm_report.Analyze.to_json r
  | _ -> Json.Obj (List.map (fun (name, r) -> (name, Cm_report.Analyze.to_json r)) reports)

let report_markdown ~expt reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# Run report: %s\n" expt);
  List.iter
    (fun (name, r) ->
      if List.length reports > 1 then Buffer.add_string buf (Printf.sprintf "\n## %s\n" name);
      Buffer.add_string buf (Cm_report.Analyze.to_markdown r))
    reports;
  Buffer.contents buf

type artifact = Trace_run.artifact = { a_name : string; a_path : string; a_bytes : int }

let run ?(out_dir = "reports") ~expt ~seed () =
  let reports = analyze_all ~expt ~seed in
  Telemetry.Recorder.ensure_dir out_dir;
  let emit suffix contents = Trace_run.write_artifact ~out_dir (expt ^ suffix) contents in
  let json = Json.to_string (report_json reports) ^ "\n" in
  let artifacts =
    [ emit ".report.json" json; emit ".report.md" (report_markdown ~expt reports) ]
  in
  (* the machine channel also goes to stdout so CI can twice-run diff it
     without touching the filesystem *)
  print_string json;
  artifacts

let print artifacts =
  List.iter
    (fun a ->
      prerr_endline (Printf.sprintf "  %-28s %8d bytes  %s" a.a_name a.a_bytes a.a_path))
    artifacts

let check_dump path =
  match open_in path with
  | exception Sys_error msg ->
      Printf.eprintf "cm_expt report: %s\n" msg;
      1
  | ic ->
      let bad = ref 0 and lines = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then begin
             incr lines;
             match Json.parse line with
             | Ok _ -> ()
             | Error msg ->
                 incr bad;
                 Printf.eprintf "%s:%d: %s\n" path !lines msg
           end
         done
       with End_of_file -> ());
      close_in ic;
      if !bad > 0 then begin
        Printf.eprintf "cm_expt report: %d invalid line(s) in %s\n" !bad path;
        1
      end
      else begin
        Printf.printf "%s: %d JSON line(s), all valid\n" path !lines;
        0
      end
