(* Command line of the repository benchmark.

     bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--refs DIR] [--out DIR] [--write-ref]

   Prints a human report, then one JSON line: end-to-end metrics without
   --trace, per-layer metrics with --trace 1.  With --workload all, each
   workload runs in a process of its own, one after another, so that each
   peak_heap_mb is its own; each prints its report and JSON line.
   --write-ref stores the outputs of one repetition as the reference for
   this seed, after checking them against the program's own family. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref false in
  let refs = ref "perfbench/refs" and out = ref "" and write = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all (one after another)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure (default 10)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun s -> trace := s = "1"), " per-layer traced run");
      ("--refs", Arg.Set_string refs, "DIR reference outputs (default perfbench/refs)");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
      ("--write-ref", Arg.Set write, " store this seed's reference outputs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [options]";
  let one (w : Common.workload) =
    let path = Harness.ref_path ~dir:!refs ~workload:w.Common.name ~seed:!seed in
    if !write then begin
      let base = Harness.fresh_rep w Common.Full ~seed:!seed Span.off in
      let c =
        Harness.check ~reference:None ~cross:(w.Common.cross_check Common.Full ~seed:!seed) base [ base ]
      in
      if c.Harness.failed > 0 then begin
        List.iter prerr_endline c.Harness.problems;
        prerr_endline "not writing a failing reference";
        exit 1
      end;
      Harness.write_ref path base.Common.outputs;
      Printf.printf "wrote %s\n" path
    end
    else begin
      let spans_out =
        if !out = "" || not !trace then None
        else begin
          if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
          Some (Filename.concat !out (Printf.sprintf "%s.seed%d.spans.tsv" w.Common.name !seed))
        end
      in
      let r =
        Harness.measure ?reference:(Harness.read_ref path) ?spans_out w ~size:Common.Full ~seed:!seed
          ~seconds:!seconds ~trace:!trace
      in
      List.iter print_endline r.Harness.lines;
      print_endline (Harness.json r)
    end
  in
  (* this program again, for one workload *)
  let spawn (w : Common.workload) =
    let argv =
      [ Sys.executable_name; "--workload"; w.Common.name; "--seed"; string_of_int !seed ]
      @ [ "--seconds"; Printf.sprintf "%.17g" !seconds; "--trace"; (if !trace then "1" else "0") ]
      @ [ "--refs"; !refs ]
      @ (if !out = "" then [] else [ "--out"; !out ])
      @ if !write then [ "--write-ref" ] else []
    in
    flush stdout;
    let pid = Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout Unix.stderr in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
        Printf.eprintf "workload %s: exit %d\n" w.Common.name c;
        exit 1
  in
  if !workload = "all" then List.iter spawn Harness.workloads else one (Harness.find !workload)
