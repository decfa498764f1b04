(* Measurement loop, output check and report.

   End-to-end metrics come from untraced repetitions: each repetition
   starts after a full major collection and reports its set-up and run
   seconds, and a run reports the median of each over its repetitions
   (quartiles and deciles go to the human report).

   The host this was written on changes speed by up to 1.7x in phases of
   seconds to minutes, and CPU time drifts with wall time, so it is not
   preemption.  Every untraced repetition is therefore timed between two
   runs of a fixed calibration kernel, and its seconds are scaled to a
   reference speed: seconds x calib_ref_s / (mean of the two calibration
   times).  Over the same repetitions this cut the quartile spread of the
   per-run median run_s from 32% to 7% on pipe_stream and from 18% to 8%
   on cm_many_flows (perfbench/METRICS.md has the measurements).  The
   kernel is the benchmark's own code, so a change to the program moves
   the scaled seconds as it moves the host seconds.

   A traced run interleaves untraced and traced repetitions, so the
   per-layer table and the tracing overhead are measured under the same
   conditions. *)

open Common

let workloads = [ W_pipe.workload; W_many.workload; W_edge.workload; W_adaptive.workload ]

let find name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (known: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) workloads)))

let end_to_end = [ ("setup_s", "s"); ("run_s", "s"); ("peak_heap_mb", "MB") ]

(* Per-layer metrics: name, unit, and where the value comes from. *)
type source =
  | Counter  (** a count the workload reports under this name *)
  | Self_ns of Span.kind  (** mean self ns per call *)
  | Calls of Span.kind
  | Words of Span.kind  (** mean self minor words per call *)
  | Self_s of Span.kind  (** total self seconds in one repetition *)
  | Derived  (** computed by [derived] below *)

let spanned_metrics prefix ?(ns = prefix ^ ".ns") k =
  [
    (ns, "ns", Self_ns k);
    (prefix ^ ".calls", "count", Calls k);
    (prefix ^ ".words", "words/call", Words k);
  ]

let ops_kinds = List.map (fun k -> op_key (Libcm.Ops.to_string k)) Libcm.Ops.all

let per_layer =
  [
    ("eventsim.events", "count", Counter);
    ("eventsim.events_per_unit", "ev/unit", Derived);
    ("eventsim.events_per_s", "1/s", Derived);
    ("eventsim.residual_ns_per_event", "ns", Derived);
    ("eventsim.residual_s", "s", Self_s Span.Run_for);
    ("eventsim.queue_hw", "count", Counter);
    ("eventsim.overflow_inserts", "count", Counter);
    ("eventsim.overflow_migrations", "count", Counter);
    ("eventsim.pool_hw", "count", Counter);
    ("eventsim.dispatch.timer", "count", Counter);
    ("eventsim.dispatch.net", "count", Counter);
    ("eventsim.dispatch.cm", "count", Counter);
    ("eventsim.dispatch.other", "count", Counter);
  ]
  @ spanned_metrics "netsim.link_send" ~ns:"netsim.link_send.self_ns" Span.Link_send
  @ spanned_metrics "netsim.deliver" ~ns:"netsim.deliver.self_ns" Span.Deliver
  @ [
      ("netsim.delivered_pkts", "count", Counter);
      ("netsim.queue_drops", "count", Counter);
      ("netsim.channel_drops", "count", Counter);
    ]
  @ spanned_metrics "tcp.rx" ~ns:"tcp.rx_self_ns" Span.Tcp_rx
  @ [
      ("tcp.segments_out", "count", Counter);
      ("tcp.acks_out", "count", Counter);
      ("tcp.retransmits", "count", Counter);
      ("tcp.timeouts", "count", Counter);
      ("tcp.connections", "count", Counter);
      ("tcp.leg_run_s", "s", Counter);
    ]
  @ List.concat_map
      (fun (p, k) -> spanned_metrics p k)
      [
        ("cm.request", Span.Cm_request);
        ("cm.notify", Span.Cm_notify);
        ("cm.update", Span.Cm_update);
        ("cm.open", Span.Cm_open);
        ("cm.close", Span.Cm_close);
      ]
  @ [
      ("cm.grants", "count", Counter);
      ("cm.teardown_probes", "count", Counter);
      ("cm.rr.run_s", "s", Counter);
      ("cm.stride.run_s", "s", Counter);
    ]
  @ List.concat_map
      (fun (p, k) -> spanned_metrics p k)
      [
        ("libcm.request", Span.Libcm_request);
        ("libcm.update", Span.Libcm_update);
        ("libcm.cb", Span.Libcm_cb);
        ("udp.send", Span.Udp_send);
      ]
  @ List.map (fun k -> ("libcm.ops_per_pkt." ^ k, "ops/pkt", Counter)) ops_kinds
  @ [
      ("libcm.alf_leg_run_s", "s", Counter);
      ("spec.elaborate_s", "s", Self_s Span.Spec_elaborate);
      ("spec.build_s", "s", Self_s Span.Spec_build);
      ("spec.launch_s", "s", Self_s Span.Spec_launch);
      ("spec.build_mwords", "Mwords", Counter);
    ]
  @ spanned_metrics "apps.cb" Span.Apps_cb
  @ [
      ("apps.fetches", "count", Counter);
      ("apps.layer_switches", "count", Counter);
      ("telemetry.capture_s", "s", Self_s Span.Tel_capture);
      ("telemetry.export_s", "s", Self_s Span.Tel_export);
      ("telemetry.export_bytes", "bytes", Counter);
      ("telemetry.trace_events", "count", Counter);
      ("telemetry.samples", "count", Counter);
      ("report.analyze_s", "s", Self_s Span.Report_analyze);
      ("gc.minor_words_per_unit", "words/unit", Derived);
      ("gc.promoted_words_per_unit", "words/unit", Derived);
      ("gc.minor_collections", "count", Derived);
      ("gc.major_collections", "count", Derived);
      ("bench.tracing_overhead_pct", "%", Derived);
      ("bench.spans", "count", Derived);
    ]

let quantile q xs = percentile (Array.of_list (List.sort compare xs)) q

let median = quantile 0.5

(* ---- output check ---------------------------------------------------- *)

type check = {
  failed : int;  (** units failed over all checked repetitions *)
  attempted : int;
  problems : string list;  (** one line per mismatch, for the report *)
}

let diff_outputs ~what ~expected ~got =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k got with
      | Some v' when v' = v -> None
      | Some v' -> Some (Printf.sprintf "%s: %s is %s, expected %s" what k v' v)
      | None -> Some (Printf.sprintf "%s: %s missing" what k))
    expected

(* [reps] are checked against the first untraced repetition, which is
   checked against the stored reference (when there is one for this seed)
   and the program's own family.  A unit fails when it did not complete,
   or when its repetition's outputs differ from what they are checked
   against. *)
let check ~reference ~cross (base : rep) (reps : rep list) =
  let global =
    (match reference with
    | None -> []
    | Some r ->
        diff_outputs ~what:"reference" ~expected:r ~got:base.outputs
        @ List.filter_map
            (fun (k, _) ->
              if List.mem_assoc k r then None
              else Some (Printf.sprintf "reference: %s not in the reference" k))
            base.outputs)
    @ diff_outputs ~what:"program family" ~expected:cross ~got:base.outputs
  in
  let per_rep =
    List.mapi
      (fun k r ->
        let d = diff_outputs ~what:(Printf.sprintf "repetition %d" k) ~expected:base.outputs ~got:r.outputs in
        let failed = if global <> [] || d <> [] then r.units else r.units - r.completed in
        (failed, d))
      reps
  in
  {
    failed = List.fold_left (fun a (f, _) -> a + f) 0 per_rep;
    attempted = List.fold_left (fun a r -> a + r.units) 0 reps;
    problems = global @ List.concat_map snd per_rep;
  }

(* ---- references -------------------------------------------------------- *)

let ref_path ~dir ~workload ~seed = Filename.concat dir (Printf.sprintf "%s.seed%d.ref" workload seed)

let read_ref path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let rec go acc =
      match input_line ic with
      | line -> (
          match String.index_opt line '\t' with
          | Some j -> go ((String.sub line 0 j, String.sub line (j + 1) (String.length line - j - 1)) :: acc)
          | None -> go acc)
      | exception End_of_file -> List.rev acc
    in
    let r = go [] in
    close_in ic;
    Some r
  end

let write_ref path outputs =
  let oc = open_out_bin path in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) outputs;
  close_out oc

(* ---- measurement ------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  lines : string list;  (** the human report, printed before the JSON *)
}

let fresh_rep w size ~seed tr =
  Gc.compact ();
  Netsim.Packet.reset_ids ();
  w.run size ~seed tr

let counter (r : rep) name = Option.value ~default:0. (List.assoc_opt name r.counters)

let table_lines rows =
  Printf.sprintf "%-22s %10s %14s %12s %12s" "span" "calls" "self ns/call" "self s" "words/call"
  :: List.map
       (fun (r : Span.row) ->
         let label =
           if r.Span.r_kind = Span.Run_for then "residual (run_for)" else Span.name r.Span.r_kind
         in
         Printf.sprintf "%-22s %10d %14.1f %12.6f %12.2f" label r.Span.r_calls
           (Span.per_call r.Span.r_self_ns r.Span.r_calls)
           (float_of_int r.Span.r_self_ns *. 1e-9)
           (Span.per_call r.Span.r_self_words r.Span.r_calls))
       rows

let layer_metrics ~(plain : rep list) ~(traced : rep) ~overhead_pct ~spans rows =
  let row k = Span.find_row rows k in
  let events = counter traced "eventsim.events" in
  let first = List.hd plain in
  let per_unit x = if first.units = 0 then 0. else x /. float_of_int first.units in
  let derived = function
    | "eventsim.events_per_unit" -> per_unit events
    | "eventsim.events_per_s" ->
        let s = median (List.map (fun r -> r.run_s) plain) in
        if s > 0. then events /. s else 0.
    | "eventsim.residual_ns_per_event" ->
        if events > 0. then float_of_int (row Span.Run_for).Span.r_self_ns /. events else 0.
    | "gc.minor_words_per_unit" -> per_unit first.gc.minor_words
    | "gc.promoted_words_per_unit" -> per_unit first.gc.promoted_words
    | "gc.minor_collections" -> float_of_int first.gc.minor_gcs
    | "gc.major_collections" -> float_of_int first.gc.major_gcs
    | "bench.tracing_overhead_pct" -> overhead_pct
    | "bench.spans" -> float_of_int spans
    | m -> invalid_arg ("no derivation for " ^ m)
  in
  List.map
    (fun (name, unit, src) ->
      let v =
        match src with
        | Counter -> counter traced name
        | Self_ns k ->
            let r = row k in
            Span.per_call r.Span.r_self_ns r.Span.r_calls
        | Calls k -> float_of_int (row k).Span.r_calls
        | Words k ->
            let r = row k in
            Span.per_call r.Span.r_self_words r.Span.r_calls
        | Self_s k -> float_of_int (row k).Span.r_self_ns *. 1e-9
        | Derived -> derived name
      in
      (name, v, unit))
    per_layer

(* ---- host speed --------------------------------------------------------- *)

(* The calibration kernel's time at the reference speed: about what it
   takes on the host this was written on. *)
let calib_ref_s = 0.025

(* Hash-table updates and a sort: a fixed, seed-independent piece of
   allocating OCaml, timed after a full compaction. *)
let calibrate () =
  Gc.compact ();
  let t0 = now_s () in
  let h = Hashtbl.create 16 and acc = ref 0. in
  for i = 0 to 80_000 do
    let k = i * 7919 land 0x3fff in
    Hashtbl.replace h k (float_of_int i);
    acc := !acc +. Hashtbl.find h k
  done;
  let a = Array.init 40_000 (fun i -> float_of_int (i * 104729 land 0xfffff)) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc, a));
  now_s () -. t0

(* ---- measurement loop ---------------------------------------------------- *)

(* Repeat the workload for [seconds] (at least [min_reps] untraced
   repetitions, and with [trace] at least one traced one), check every
   repetition's outputs and summarise. *)
let measure ?(min_reps = 3) ?reference ?spans_out (w : workload) ~size ~seed ~seconds ~trace =
  let t0 = now_s () in
  let plain = ref [] and traced = ref [] and last_store = ref Span.off in
  let enough () =
    now_s () -. t0 >= seconds
    && List.length !plain >= (if trace then 1 else min_reps)
    && ((not trace) || !traced <> [])
  in
  let peak_heap_mb = ref 0. in
  (* the calibration just before the next repetition, if nothing ran since *)
  let calib = ref None in
  while not (enough ()) do
    (* the first repetition runs before any calibration, so that
       peak_heap_mb is the workload's own *)
    let before =
      match !calib with
      | Some _ as c -> c
      | None -> if !plain = [] then None else Some (calibrate ())
    in
    let r = fresh_rep w size ~seed Span.off in
    (* the heap's high-water mark of the first repetition; bench.exe runs
       each workload in a process of its own, and later repetitions reuse
       (and fragment) the same heap *)
    if !peak_heap_mb = 0. then
      peak_heap_mb := float_of_int (Gc.((quick_stat ()).top_heap_words) * (Sys.word_size / 8)) /. 1e6;
    let after = calibrate () in
    calib := Some after;
    let speed = match before with Some b -> (b +. after) /. 2. | None -> after in
    plain := (r, calib_ref_s /. speed) :: !plain;
    if trace then begin
      (* only the last traced repetition's spans are kept *)
      last_store := Span.off;
      let store = Span.create () in
      traced := fresh_rep w size ~seed store :: !traced;
      last_store := store;
      calib := None
    end
  done;
  let scaled = List.rev !plain and traced = List.rev !traced in
  let plain = List.map fst scaled in
  let base = List.hd plain in
  let cross = w.cross_check size ~seed in
  let c = check ~reference ~cross base (plain @ traced) in
  let fail_frac = float_of_int c.failed /. float_of_int (max 1 c.attempted) in
  let spread name xs =
    Printf.sprintf "%-34s median %.6g, quartiles %.6g %.6g, deciles %.6g %.6g s over %d repetitions"
      name (median xs) (quantile 0.25 xs) (quantile 0.75 xs) (quantile 0.1 xs) (quantile 0.9 xs)
      (List.length xs)
  in
  let setup_scaled = List.map (fun (r, f) -> r.setup_s *. f) scaled
  and run_scaled = List.map (fun (r, f) -> r.run_s *. f) scaled in
  let header =
    [
      Printf.sprintf "workload %s  seed %d  size %s  repetitions %d untraced, %d traced" w.name seed
        (match size with Full -> "full" | Tiny -> "tiny")
        (List.length plain) (List.length traced);
      Printf.sprintf "check: %s; %s; %d output(s) per repetition, %s"
        (match reference with
        | None -> "no stored reference for this seed"
        | Some r -> Printf.sprintf "stored reference (%d outputs)" (List.length r))
        (if cross = [] then "no program-family cross-check"
         else Printf.sprintf "program-family cross-check (%d outputs)" (List.length cross))
        (List.length base.outputs)
        (if c.problems = [] then "all equal" else Printf.sprintf "%d mismatch(es)" (List.length c.problems));
    ]
    @ List.map (fun p -> "MISMATCH " ^ p) c.problems
  in
  let e2e =
    List.map
      (fun (name, unit) ->
        let v =
          match name with
          | "setup_s" -> median setup_scaled
          | "run_s" -> median run_scaled
          | _ -> !peak_heap_mb
        in
        (name, v, unit))
      end_to_end
  in
  let metric_line (n, v, u) = Printf.sprintf "%-34s %.6g %s" n v u in
  let e2e_lines =
    List.map metric_line e2e
    @ [
        spread "  setup_s" setup_scaled;
        spread "  run_s" run_scaled;
        spread "  setup_s in host seconds" (List.map (fun r -> r.setup_s) plain);
        spread "  run_s in host seconds" (List.map (fun r -> r.run_s) plain);
        Printf.sprintf "  host speed: calibration kernel %.6g s (median) against %.6g s at reference speed"
          (median (List.map (fun (_, f) -> calib_ref_s /. f) scaled))
          calib_ref_s;
      ]
    @ [ Printf.sprintf "%-34s %.6g %s  (%d of %d units)" "fail_frac" fail_frac "1" c.failed c.attempted ]
  in
  let metrics, trace_lines =
    if not trace then (e2e, [])
    else begin
      let store = !last_store in
      let rows = Span.table store in
      Option.iter (fun path -> Span.write store path) spans_out;
      let last_traced = List.nth traced (List.length traced - 1) in
      let run_plain = median (List.map (fun r -> r.run_s) plain)
      and run_traced = median (List.map (fun r -> r.run_s) traced) in
      let overhead_pct = if run_plain > 0. then ((run_traced /. run_plain) -. 1.) *. 100. else 0. in
      let layer = layer_metrics ~plain ~traced:last_traced ~overhead_pct ~spans:(Span.count store) rows in
      ( layer,
        [ Printf.sprintf "per-layer table (%d spans, last traced repetition):" (Span.count store) ]
        @ table_lines rows
        @ [ Printf.sprintf "traced run_s %.6g s against untraced %.6g s" run_traced run_plain ]
        @ List.map metric_line layer )
    end
  in
  {
    correct = c.failed = 0;
    attempted = c.attempted;
    failed = c.failed;
    metrics;
    lines = header @ e2e_lines @ trace_lines;
  }

let json_number v =
  if not (Float.is_finite v) then invalid_arg "json_number: not a finite number"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json r =
  let m =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed (String.concat ", " m)
