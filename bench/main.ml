(* bench/main — the paper's evaluation (§4) plus the simulator's own cost
   accounting (its version of Fig. 6 / Table 1): every family's wall time,
   Fig. 6 TCP/CM macro events/sec, four A/B overhead sections (telemetry,
   endpoint-fault defenses, cmproto hardening, profiler + flight
   recorder), [scale] events/sec at N = 64 … 16384 under both schedulers,
   and bechamel microbenchmarks.  Writes one JSON document, BENCH_PR9.json
   by default (schema: DESIGN.md §6; compared by bench_diff).

   Set CM_BENCH_FULL=1 for the long variants (10^6-buffer Fig. 4/5 point,
   200k-packet Fig. 6); CM_BENCH_SEED to change the seed; CM_BENCH_SMOKE=1
   for a seconds-long build/run verification pass (tiny iteration counts,
   experiments skipped); CM_BENCH_OUT to redirect the JSON file. *)

open Cm_util
module Exp_common = Experiments.Exp_common

let params =
  let seed =
    match Sys.getenv_opt "CM_BENCH_SEED" with Some s -> int_of_string s | None -> 42
  in
  let full = Sys.getenv_opt "CM_BENCH_FULL" = Some "1" in
  { Exp_common.default_params with seed; full }

let smoke = Sys.getenv_opt "CM_BENCH_SMOKE" = Some "1"
let json_path = match Sys.getenv_opt "CM_BENCH_OUT" with Some p -> p | None -> "BENCH_PR9.json"

(* The one timing policy: one untimed warm-up run (it pays the one-off
   page-fault and major-heap shaping costs that would otherwise land on
   whichever run comes first), then [reps] runs (1 in smoke mode), each
   from a compacted heap so the dead major heap left by earlier sections
   is not swept on the clock.  Returns the minimum wall and that run's
   result: a single sample is one scheduler quantum of OS noise, and the
   minimum over a few is the code's cost rather than the machine's. *)
let best_wall ~reps f =
  ignore (f ());
  let best = ref infinity and result = ref None in
  for _ = 1 to if smoke then 1 else reps do
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let wall = Unix.gettimeofday () -. t0 in
    if wall < !best then begin
      best := wall;
      result := Some r
    end
  done;
  (!best, Option.get !result)

let run_experiments () =
  if smoke then begin
    print_endline "[smoke mode: experiments skipped, tiny iteration counts]";
    Json.List []
  end
  else begin
    print_endline "=====================================================================";
    print_endline " Congestion Manager reproduction: every table and figure (paper sec 4)";
    print_endline "=====================================================================";
    Json.List
      (List.map
         (fun (f : Experiments.Family.t) ->
           let t0 = Unix.gettimeofday () in
           f.run params;
           let wall = Unix.gettimeofday () -. t0 in
           Printf.printf "[%s finished in %.1fs]\n%!" f.name wall;
           Json.Obj [ ("name", Json.Str f.name); ("wall_s", Json.Float wall) ])
         Experiments.Family.distinct)
  end

(* ------------------------------------------------------------------ *)
(* Macrobenchmark: events per second of the simulator core on the Fig. 6
   TCP/CM workload (the sender path the whole evaluation is driven by).
   Best of 5: the figure gates bench_diff's 15 % PR-over-PR check. *)

let fig6_workload = "fig6 TCP/CM 1448B"
let fig6 p ~n () = Experiments.Fig6.measure_macro p Experiments.Fig6.Tcp_cm ~size:1448 ~n

let json_round x = Json.Int (Float.to_int (Float.round x))

let run_macro () =
  let n = if smoke then 500 else if params.Exp_common.full then 200_000 else 20_000 in
  let wall, m = best_wall ~reps:5 (fig6 params ~n) in
  let events = m.Experiments.Fig6.m_events in
  let eps = float_of_int events /. wall in
  Printf.printf "\n== Macrobenchmark: event core on the Fig. 6 workload ==\n";
  Printf.printf "%s: %d packets, %d events in %.3fs wall = %.0f events/sec\n%!" fig6_workload n
    events wall eps;
  Json.Obj
    [
      ("workload", Json.Str fig6_workload);
      ("packets", Json.Int n);
      ("events", Json.Int events);
      ("wall_s", Json.Float wall);
      ("events_per_sec", json_round eps);
      ("virtual_clock_s", Json.Float (Time.to_float_s m.Experiments.Fig6.m_final_clock));
    ]

(* ------------------------------------------------------------------ *)
(* A/B overheads: the best wall of an "off" run against each "on" arm
   [(key prefix, label, budget %, run)], best of 3 each, in list order.
   A lone arm with prefix "" writes on_wall_s / overhead_pct / budget_pct;
   a named arm p writes p_wall_s / p_overhead_pct / p_budget_pct.
   bench_diff gates the hardening and observability budgets. *)

let ab_n = if smoke then 500 else 20_000

let ab_overhead ?(extra = []) ~title ~workload ~off arms =
  let wall f = fst (best_wall ~reps:3 f) in
  let off_s = wall off in
  Printf.printf "\n== %s overhead: %s (%d packets) ==\noff: %.3fs" title workload ab_n off_s;
  let arm (prefix, label, budget, on) =
    let on_s = wall on in
    let pct = (on_s -. off_s) /. off_s *. 100. in
    Printf.printf "   %s: %.3fs (%+.1f%%, budget %g%%)" label on_s pct budget;
    let key k = if prefix = "" then k else prefix ^ "_" ^ k in
    [
      ((if prefix = "" then "on" else prefix) ^ "_wall_s", Json.Float on_s);
      (key "overhead_pct", Json.Float pct);
      (key "budget_pct", Json.Float budget);
    ]
  in
  let fields = List.concat_map arm arms in
  print_newline ();
  Json.Obj
    ([ ("workload", Json.Str workload); ("packets", Json.Int ab_n); ("off_wall_s", Json.Float off_s) ]
    @ fields @ extra)

let fig6_ab p () = ignore (fig6 p ~n:ab_n ())

(* Telemetry: components hold the nil sink (one branch per potential
   event) vs 100 ms virtual-time sampling + live trace. *)
let run_telemetry_overhead () =
  let on () = fig6_ab { params with telemetry = Some (Exp_common.request_telemetry ()) } () in
  ab_overhead ~title:"Telemetry" ~workload:fig6_workload ~off:(fig6_ab params)
    ~extra:[ ("sampling_period_ms", Json.Int 100) ]
    [ ("", "on (100ms sampling + trace)", 5.0, on) ]

(* Endpoint-fault defenses: feedback watchdog + misbehaviour auditor off
   (the default) vs on.  The workload is a grant-disciplined client, so
   the defenses should be pure bookkeeping. *)
let run_defense_overhead () =
  ab_overhead ~title:"Defense" ~workload:fig6_workload ~off:(fig6_ab params)
    [ ("", "on (watchdog + auditor)", 5.0, fig6_ab { params with Exp_common.defenses = true }) ]

(* Feedback-plane hardening on the ext_cmproto workload (windowed 168 B
   CM-protocol transfer, one feedback per data packet at ack_every:1 —
   the hardening's worst case): no sequence bookkeeping, ts_echo clamp or
   solicitation timer vs all of them (the default, restored after every
   run). *)
let run_hardening_overhead () =
  let cmproto hardening () =
    Cmproto.set_hardening hardening;
    Fun.protect
      ~finally:(fun () -> Cmproto.set_hardening true)
      (fun () -> ignore (Experiments.Ext_cmproto.run_cmproto params ~n:ab_n))
  in
  ab_overhead ~title:"Hardening" ~workload:"ext_cmproto CM-protocol 168B ack_every:1"
    ~off:(cmproto false)
    [ ("", "on (seq/clamp/solicit defenses)", 5.0, cmproto true) ]

(* Observability: plain dispatch (profiler and recorder off — one branch
   on [plain] per event) vs the sampling profiler armed (per-category
   counters + one gettimeofday per 1024 dispatches) vs the flight
   recorder attached (every link/CM trace event into a preallocated
   ring). *)
let run_observability_overhead () =
  let rec_dir = Filename.concat (Filename.get_temp_dir_name ()) "cm-bench-recorder" in
  ab_overhead ~title:"Observability" ~workload:fig6_workload ~off:(fig6_ab params)
    [
      ("prof", "prof on", 5.0, fig6_ab { params with Exp_common.prof = true });
      ("recorder", "recorder on", 2.0, fig6_ab { params with Exp_common.recorder = Some rec_dir });
    ]

(* ------------------------------------------------------------------ *)
(* Many-flow scalability: the [scale] closed-loop workload (N flows over
   N/32 macroflows driving request → grant → notify → update cycles
   straight against the CM) at every family size, under both schedulers.
   bench_diff fails a file whose events/sec at the largest N falls below
   1/X of its N=64 figure (CI passes X = 4.5, the cache-residency gap of
   DESIGN.md §11).  Rounds scale inversely with N so every sample covers
   the same ~790k events (~0.3 s) instead of ~1 ms at N=64.  The wall
   reported is the point's own (set-up and latency sort excluded) from
   the fastest of 3 deterministic runs. *)

let run_scale () =
  let open Experiments.Scale in
  let sizes = if smoke then [ 64 ] else family in
  Printf.printf "\n== Scale: many-flow CM control paths (events/sec vs N) ==\n%!";
  let point sched flows =
    let rounds = if smoke then rounds else Stdlib.max rounds (rounds * 16384 / flows) in
    let _, pt = best_wall ~reps:3 (fun () -> run_point ~rounds params ~sched ~flows) in
    let per_s n = json_round (float_of_int n /. pt.p_wall_s) in
    Printf.printf
      "%-15s N=%6d: %8d events in %6.3fs wall = %9.0f events/sec  (p99 grant lat %.0f us)\n%!"
      (sched_name sched) flows pt.p_events pt.p_wall_s
      (float_of_int pt.p_events /. pt.p_wall_s)
      pt.p_lat_p99_us;
    Json.Obj
      [
        ("scheduler", Json.Str (sched_name sched));
        ("flows", Json.Int pt.p_flows);
        ("macroflows", Json.Int pt.p_macroflows);
        ("grants", Json.Int pt.p_grants);
        ("events", Json.Int pt.p_events);
        ("wall_s", Json.Float pt.p_wall_s);
        ("events_per_sec", per_s pt.p_events);
        ("grants_per_sec", per_s pt.p_grants);
        ("grant_lat_p99_us", Json.Float pt.p_lat_p99_us);
      ]
  in
  let points = List.concat_map (fun sched -> List.map (point sched) sizes) [ Rr; Stride ] in
  Json.Obj
    [ ("flows_per_macroflow", Json.Int 32); ("rounds", Json.Int rounds); ("points", Json.List points) ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: wall-clock cost and minor-heap allocation of
   the implementation's hot paths on this machine. *)

open Bechamel
open Toolkit

(* Each hot path is a raw [unit -> unit] closure: bechamel stages it for
   the wall-clock fit, and the allocation figure is taken directly from
   [Gc.minor_words] deltas — bechamel's own minor-allocated instance reads
   [Gc.quick_stat], which on OCaml 5 only refreshes at minor collections
   and grossly under-reports. *)

let bench_cm_transaction () =
  (* one full request -> grant -> notify -> update cycle *)
  let engine = Eventsim.Engine.create () in
  let cm = Cm.create engine ~mtu:1448 () in
  let key =
    Netsim.Addr.flow
      ~src:(Netsim.Addr.endpoint ~host:0 ~port:100)
      ~dst:(Netsim.Addr.endpoint ~host:1 ~port:200)
      ~proto:Netsim.Addr.Udp ()
  in
  let fid = Cm.open_flow cm key in
  Cm.register_send cm fid (fun fid ->
      Cm.notify cm fid ~nbytes:1448;
      Cm.update cm fid ~nsent:1448 ~nrecd:1448 ~loss:Cm.Cm_types.No_loss ~rtt:(Cm_util.Time.ms 10) ());
  fun () ->
    Cm.request cm fid;
    (* bounded: the macroflow's periodic maintenance timer means the
       event queue never fully drains *)
    Eventsim.Engine.run_for engine (Cm_util.Time.us 10)

let bench_engine_event () =
  let engine = Eventsim.Engine.create () in
  fun () ->
    ignore (Eventsim.Engine.schedule_after engine 10 (fun () -> ()));
    ignore (Eventsim.Engine.step engine)

(* the PR-1 acceptance cycle: schedule two events, cancel one, extract the
   other — the churn pattern of protocol timers under load *)
let bench_engine_cycle () =
  let engine = Eventsim.Engine.create () in
  fun () ->
    let h1 = Eventsim.Engine.schedule_after engine 10 ignore in
    ignore (Eventsim.Engine.schedule_after engine 20 ignore);
    ignore (Eventsim.Engine.cancel engine h1);
    ignore (Eventsim.Engine.step engine)

(* TCP retransmit-timer reset: re-arm an already-armed timer (in-place
   reschedule, no cancel+insert churn) *)
let bench_timer_rearm () =
  let engine = Eventsim.Engine.create () in
  let t = Eventsim.Timer.create engine ~callback:(fun () -> ()) in
  Eventsim.Timer.start t 1_000_000;
  fun () -> Eventsim.Timer.start t 1_000_000

(* timing-wheel near path: inserts landing within the wheel horizon (the
   vast majority — timer re-arms, transmit completions, grant events) *)
let bench_wheel_near () =
  let w = Wheel.create () in
  let time = ref 0 in
  let i = ref 0 in
  fun () ->
    incr i;
    time := !time + 4096;
    ignore (Wheel.insert w ~time:!time !i);
    ignore (Wheel.pop_min w)

(* timing-wheel overflow path: inserts beyond the horizon land in the
   overflow heap and migrate forward as the cursor turns — the cost a
   100 ms maintenance timer pays *)
let bench_wheel_far () =
  let w = Wheel.create () in
  let time = ref 0 in
  let i = ref 0 in
  fun () ->
    incr i;
    time := !time + 30_000_000;
    ignore (Wheel.insert w ~time:!time !i);
    ignore (Wheel.pop_min w)

let bench_scheduler () =
  let s = Cm.Scheduler.round_robin () in
  fun () ->
    s.Cm.Scheduler.enqueue 1;
    s.Cm.Scheduler.enqueue 2;
    ignore (s.Cm.Scheduler.dequeue ());
    ignore (s.Cm.Scheduler.dequeue ())

(* stride dequeue at depth: 4096 backlogged flows held steady, so every
   op is one heap fix-up (O(log 4096)) plus one re-enqueue *)
let bench_stride_scheduler () =
  let s = Cm.Scheduler.weighted () in
  for i = 1 to 4096 do
    s.Cm.Scheduler.set_weight i (float_of_int (1 + (i mod 3)));
    s.Cm.Scheduler.enqueue i
  done;
  fun () ->
    match s.Cm.Scheduler.dequeue () with
    | Some f -> s.Cm.Scheduler.enqueue f
    | None -> ()

let bench_controller () =
  let c = Cm.Controller.aimd () ~mtu:1448 in
  fun () ->
    c.Cm.Controller.on_ack ~nbytes:1448;
    if c.Cm.Controller.cwnd () > 1 lsl 20 then c.Cm.Controller.on_loss Cm.Cm_types.Persistent

let bench_rto () =
  let r = Tcp.Rto.create () in
  fun () ->
    Tcp.Rto.observe r (Cm_util.Time.ms 50);
    ignore (Tcp.Rto.rto r)

(* telemetry hot paths: the operations instrumented components execute *)

let bench_telemetry_counter () =
  let m = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter m "pkts" in
  fun () -> Telemetry.Metrics.incr c

let bench_telemetry_gauge () =
  let m = Telemetry.Metrics.create () in
  let v = ref 0. in
  let g = Telemetry.Metrics.gauge m "depth" (fun () -> !v) in
  fun () ->
    v := !v +. 1.;
    ignore (Telemetry.Metrics.sample g)

let bench_telemetry_hist () =
  let m = Telemetry.Metrics.create () in
  let h = Telemetry.Metrics.histogram m "rtt" in
  let i = ref 0 in
  fun () ->
    incr i;
    Telemetry.Metrics.observe h (float_of_int (!i land 4095))

let bench_trace_span () =
  let engine = Eventsim.Engine.create () in
  let tr = Telemetry.Trace.create engine in
  fun () ->
    (* keep the buffer bounded so the bench measures emission, not growth *)
    if Telemetry.Trace.length tr > 65_536 then Telemetry.Trace.clear tr;
    Telemetry.Trace.span_begin tr ~cat:"bench" "op" [ ("n", Telemetry.Trace.Int 1) ];
    Telemetry.Trace.span_end tr ~cat:"bench" "op"

(* spec-DSL compilation: the full static-check pass (elaboration, BFS
   reachability per group destination, routed-floor oversubscription) on
   the fat-tree k=4 family spec — 36 nodes, 96 links, 19 flows.  This is
   the cost [cm_expt spec --check] and every DSL-built experiment pay
   before the first event fires. *)
let bench_spec_elaborate () =
  let spec = Experiments.Fattree.spec in
  fun () ->
    match Cm_spec.Check.elaborate spec with
    | Ok _ -> ()
    | Error _ -> assert false

(* spec → live netsim: elaboration plus Build.instantiate (hosts, routers,
   links, routing tables) — the end-to-end setup cost of a DSL family *)
let bench_spec_build () =
  let spec = Experiments.Fattree.spec in
  let ir =
    match Cm_spec.Check.elaborate spec with Ok ir -> ir | Error _ -> assert false
  in
  fun () ->
    let engine = Eventsim.Engine.create () in
    ignore (Cm_spec.Build.instantiate engine ir)

let bench_trace_off () =
  (* the cost an uninstrumented component pays at every potential event:
     one branch on the nil sink, argument list never built *)
  let tr = Telemetry.Trace.nil in
  let x = ref 0 in
  fun () ->
    incr x;
    if Telemetry.Trace.on tr then
      Telemetry.Trace.instant tr ~cat:"bench" "op" [ ("n", Telemetry.Trace.Int !x) ]

let hot_paths : (string * (unit -> unit)) list =
  [
    ("cm request/grant/notify/update", bench_cm_transaction ());
    ("engine schedule+step", bench_engine_event ());
    ("engine sched/cancel/extract cycle", bench_engine_cycle ());
    ("timer re-arm", bench_timer_rearm ());
    ("wheel insert+pop near", bench_wheel_near ());
    ("wheel insert+pop overflow", bench_wheel_far ());
    ("rr scheduler cycle", bench_scheduler ());
    ("stride dequeue+enqueue (4096 flows)", bench_stride_scheduler ());
    ("aimd on_ack", bench_controller ());
    ("rto observe", bench_rto ());
    ("telemetry counter incr", bench_telemetry_counter ());
    ("telemetry gauge sample", bench_telemetry_gauge ());
    ("telemetry hist observe", bench_telemetry_hist ());
    ("telemetry span begin/end", bench_trace_span ());
    ("telemetry nil-sink branch", bench_trace_off ());
    ("spec elaborate+check (fat_tree k=4)", bench_spec_elaborate ());
    ("spec build to netsim (fat_tree k=4)", bench_spec_build ());
  ]

let tests =
  Test.make_grouped ~name:"hot-paths" ~fmt:"%s %s"
    (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) hot_paths)

(* average minor words per call over a long fresh run; [Gc.minor_words]
   reads the allocation pointer directly, so this is exact up to the
   constant loop overhead *)
let minor_words_per_op f =
  let runs = if smoke then 1_000 else 100_000 in
  for _ = 1 to runs / 10 do f () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do f () done;
  (Gc.minor_words () -. w0) /. float_of_int runs

(* one {name, ns_per_op, minor_words_per_op} row per hot path *)
let run_microbenchmarks () =
  print_endline "";
  print_endline "== Bechamel microbenchmarks: implementation hot paths (this machine) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota =
    match Sys.getenv_opt "CM_BENCH_QUOTA" with
    | Some s -> float_of_string s
    | None -> if smoke then 0.02 else 0.25
  in
  let kde = if smoke then None else Some 1000 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde () in
  let raw = Benchmark.all cfg instances tests in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let estimate name =
    match Hashtbl.find_opt times name with
    | Some v -> ( match Analyze.OLS.estimates v with Some [ est ] -> Some est | _ -> None)
    | None -> None
  in
  Json.List
    (List.map
       (fun (short, f) ->
         let name = "hot-paths " ^ short in
         let ns = estimate name and w = minor_words_per_op f in
         Printf.printf "%-48s %s ns/op %10.1f minor words/op\n" name
           (match ns with Some v -> Printf.sprintf "%10.1f" v | None -> "         ?")
           w;
         Json.Obj
           [
             ("name", Json.Str name);
             ("ns_per_op", match ns with Some v -> Json.Float v | None -> Json.Null);
             ("minor_words_per_op", Json.Float w);
           ])
       hot_paths)

(* ------------------------------------------------------------------ *)
(* The JSON document.  Sections are bound in order with [let] (a list
   literal would evaluate them right to left). *)

let () =
  let experiments = run_experiments () in
  let macro = run_macro () in
  let telemetry = run_telemetry_overhead () in
  let defense = run_defense_overhead () in
  let hardening = run_hardening_overhead () in
  let observability = run_observability_overhead () in
  let scale = run_scale () in
  let micro = run_microbenchmarks () in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ("pr", Json.Int 9);
        ("seed", Json.Int params.Exp_common.seed);
        ("full", Json.Bool params.Exp_common.full);
        ("smoke", Json.Bool smoke);
        ("experiments", experiments);
        ("macro", macro);
        ("telemetry_overhead", telemetry);
        ("defense_overhead", defense);
        ("hardening_overhead", hardening);
        ("observability_overhead", observability);
        ("scale", scale);
        ("micro", micro);
      ]
  in
  let oc = open_out json_path in
  output_string oc (Json.to_string doc ^ "\n");
  close_out oc;
  Printf.printf "\n[wrote %s]\n%!" json_path
