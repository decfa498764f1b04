(* adaptive_observed: the Fig. 8/9 layered-streaming families and the
   three fault scenarios run instrumented, the way `cm_expt trace` and
   `cm_expt report` run them: every system carries the telemetry that
   Trace_run.capture asks for, is exported in the four telemetry formats
   and analysed by Cm_report.Analyze.  The only workload where telemetry,
   report, dynamics and the layered app do work.

   A capture builds and runs its system inside one call, so the benchmark
   builds each system itself, in the order and with the parameters of
   Fig8_10.run_one and Scenarios.run_bulk / run_layered (the handwritten
   pipe), attaching telemetry through Exp_common.instrument.  That splits
   set-up from run.  The cross-check runs Trace_run.capture itself and
   requires byte-identical exports and reports, which shows the copy is
   exact. *)

open Cm_util
open Eventsim
open Netsim
open Common
module Scenario = Cm_dynamics.Scenario

type system =
  | Layered_fig of { mode : Cm_apps.Layered.mode; duration : Time.span }
      (** Fig8_10.run_one without feedback batching *)
  | Scenario_bulk of Experiments.Scenarios.scenario_id  (** Scenarios.run_bulk *)
  | Scenario_layered of Experiments.Scenarios.scenario_id  (** Scenarios.run_layered *)

let fig8 = Layered_fig { mode = Cm_apps.Layered.Alf; duration = Time.sec 25. }

let fig9 =
  Layered_fig
    { mode = Cm_apps.Layered.Rate_callback { down = 0.9; up = 1.1 }; duration = Time.sec 20. }

(* (Trace_run name, system, seeds derived from the workload seed).  Only
   scenario_burst draws from its RNG (Gilbert-Elliott loss); the other
   four give byte-identical outputs at every seed, so they run once. *)
let captures size seed =
  let open Experiments.Scenarios in
  match size with
  | Full ->
      [
        ("fig8", fig8, [ seed ]);
        ("fig9", fig9, [ seed ]);
        ("scenario_burst", Scenario_bulk Burst_loss, [ seed; seed + 1 ]);
        ("scenario_outage", Scenario_bulk Outage, [ seed ]);
        ("scenario_sawtooth", Scenario_layered Sawtooth, [ seed ]);
      ]
  | Tiny -> [ ("scenario_burst", Scenario_bulk Burst_loss, [ seed ]) ]

(* Fig8_10's available-bandwidth schedule, repeated every 25 s *)
let fig_schedule duration =
  let base =
    [
      (Time.sec 0., 18e6);
      (Time.sec 5., 6e6);
      (Time.sec 10., 3e6);
      (Time.sec 15., 10e6);
      (Time.sec 20., 18e6);
    ]
  in
  let rec extend acc offset =
    if offset >= duration then List.rev acc
    else
      extend
        (List.rev_append (List.map (fun (t, bw) -> (Time.add t offset, bw)) base) acc)
        (Time.add offset (Time.sec 25.))
  in
  extend [] 0

(* Scenarios' canned fault schedules on the forward link *)
let fault_steps (id : Experiments.Scenarios.scenario_id) =
  match id with
  | Burst_loss ->
      [
        ( Time.sec 8.,
          Scenario.Loss_burst
            {
              spec =
                Scenario.Loss_gilbert_elliott
                  (Cm_dynamics.Loss.ge ~p_gb:0.01 ~p_bg:0.1 ~loss_bad:0.3 ());
              duration = Time.sec 8.;
            } );
      ]
  | Outage -> [ (Time.sec 8., Scenario.Outage (Time.sec 2.)) ]
  | Sawtooth ->
      let tooth at =
        [
          (at, Scenario.Ramp_bandwidth { to_bps = 2e6; over = Time.sec 3.; steps = 6 });
          (Time.add at (Time.sec 5.), Scenario.Set_bandwidth 8e6);
        ]
      in
      tooth (Time.sec 6.) @ tooth (Time.sec 13.)

let scenario_duration = Time.sec 24.

let layered_source lib (net : Topology.pipe) ~layers ~mode =
  let _receiver = Udp.Cc_socket.run_echo_receiver net.Topology.b ~port:5004 () in
  let source =
    Cm_apps.Layered.create lib ~host:net.Topology.a
      ~dst:(Addr.endpoint ~host:1 ~port:5004)
      ~layers ~mode ~packet_bytes:1000 ()
  in
  Cm_apps.Layered.start source;
  source

(* Build one instrumented system up to its first event.  Returns the
   engine, its telemetry, how long to run, and what ends the run. *)
let build params system =
  let engine = Experiments.Exp_common.create_engine params () in
  let rng = Rng.create ~seed:params.Experiments.Exp_common.seed in
  let instrument ~links cm =
    match Experiments.Exp_common.instrument params ~engine ~links ~cm () with
    | Some tel -> tel
    | None -> invalid_arg "adaptive_observed: telemetry not requested"
  in
  match system with
  | Layered_fig { mode; duration } ->
      let net =
        Topology.pipe engine ~bandwidth_bps:18e6 ~delay:(Time.ms 20) ~qdisc_limit:50
          ~reverse_qdisc_limit:200 ~rng ()
      in
      Scenario.compile engine ~rng
        ~links:[ ("wan", net.Topology.ab) ]
        (Scenario.of_bandwidth_schedule ~name:"fig8-10 vBNS path" ~target:"wan"
           (fig_schedule duration));
      let cm = Cm.create engine ~mtu:1000 () in
      Cm.attach cm net.Topology.a;
      let tel = instrument ~links:[ ("wan", net.Topology.ab); ("rev", net.Topology.ba) ] cm in
      let lib = Libcm.create net.Topology.a cm () in
      let source = layered_source lib net ~layers:[| 2e6; 4e6; 8e6; 16e6 |] ~mode in
      (engine, tel, duration, fun () -> Cm_apps.Layered.stop source)
  | Scenario_bulk id | Scenario_layered id ->
      let net = Topology.pipe engine ~bandwidth_bps:8e6 ~delay:(Time.ms 20) ~qdisc_limit:50 ~rng () in
      let scenario =
        Scenario.make
          ~name:(Experiments.Scenarios.scenario_name id)
          (List.map (fun (at, action) -> { Scenario.at; target = "fwd"; action }) (fault_steps id))
      in
      let links = [ ("fwd", net.Topology.ab); ("rev", net.Topology.ba) ] in
      let layered = match system with Scenario_layered _ -> true | _ -> false in
      let cm = if layered then Cm.create engine ~mtu:1000 () else Cm.create engine () in
      Cm.attach cm net.Topology.a;
      let tel = instrument ~links cm in
      let finish =
        if layered then begin
          let lib = Libcm.create net.Topology.a cm () in
          let source =
            layered_source lib net ~layers:[| 1e6; 2e6; 4e6; 8e6 |] ~mode:Cm_apps.Layered.Alf
          in
          fun () -> Cm_apps.Layered.stop source
        end
        else begin
          let tl = Timeline.create () in
          let _listener =
            Tcp.Conn.listen net.Topology.b ~port:80
              ~on_accept:(fun conn ->
                Tcp.Conn.on_receive conn (fun n ->
                    Timeline.record tl (Engine.now engine) (float_of_int n)))
              ()
          in
          let conn =
            Tcp.Conn.connect net.Topology.a
              ~dst:(Addr.endpoint ~host:1 ~port:80)
              ~driver:(Tcp.Conn.Cm_driven cm) ()
          in
          Tcp.Conn.send conn (1 lsl 34);
          ignore
        end
      in
      Scenario.compile engine ~rng ~links scenario;
      (engine, tel, scenario_duration, finish)

let digest s = Digest.to_hex (Digest.string s)

(* What is compared for one captured system: report and export digests,
   events and final clock. *)
let system_outputs ~key ~exports ~report engine =
  [
    (key ^ ".report", digest report);
    (key ^ ".exports", String.concat "," (List.map digest exports));
    (key ^ ".events", int_out (Engine.events_executed engine));
    (key ^ ".final_clock_ns", int_out (Engine.now engine));
  ]

let export tr tel =
  spanned tr Span.Tel_export (fun () ->
      [
        Telemetry.export_jsonl tel;
        Telemetry.export_chrome tel;
        Telemetry.export_csv tel;
        Telemetry.export_metrics_json tel;
      ])

let analyze tr tel =
  spanned tr Span.Report_analyze (fun () ->
      Json.to_string
        (Cm_report.Analyze.to_json (Cm_report.Analyze.analyze (Cm_report.Analyze.of_telemetry tel))))

let params ~seed ~traced =
  {
    Experiments.Exp_common.default_params with
    seed;
    telemetry = Some (Experiments.Exp_common.request_telemetry ());
    prof = traced;
  }

let each_capture size seed f =
  List.concat_map
    (fun (expt, system, seeds) -> List.concat_map (fun s -> f expt system s) seeds)
    (captures size seed)

let run size ~seed tr =
  let ph = phases () in
  let export_bytes = ref 0 and trace_events = ref 0 and samples = ref 0 and switches = ref 0 in
  let engines = ref [] and analysed = ref 0 in
  let outputs =
    each_capture size seed (fun expt system s ->
        (* each system starts on a compacted heap, as each repetition
           does, so that its set-up is not charged for collecting the
           previous system; packet ids appear in the trace, so they
           restart per system, as in Trace_run.capture *)
        Gc.compact ();
        Packet.reset_ids ();
        let engine, tel, duration, finish =
          setup ph (fun () -> build (params ~seed:s ~traced:(Span.enabled tr)) system)
        in
        run ph (fun () ->
            spanned tr Span.Tel_capture (fun () ->
                Engine.run_for engine duration;
                finish ();
                Telemetry.stop tel);
            let exports = export tr tel in
            let report = analyze tr tel in
            let trace = Telemetry.trace tel in
            export_bytes := List.fold_left (fun a x -> a + String.length x) !export_bytes exports;
            trace_events := !trace_events + Telemetry.Trace.length trace;
            samples := !samples + Telemetry.Sampler.ticks (Telemetry.sampler tel);
            Telemetry.Trace.iter trace (fun e ->
                if e.Telemetry.Trace.name = "app.layer" then incr switches);
            engines := engine :: !engines;
            incr analysed;
            system_outputs ~key:(Printf.sprintf "%s.seed%d.0" expt s) ~exports ~report engine))
  in
  let counters =
    engine_counters (List.rev !engines)
    @ [
        ("telemetry.export_bytes", float_of_int !export_bytes);
        ("telemetry.trace_events", float_of_int !trace_events);
        ("telemetry.samples", float_of_int !samples);
        ("apps.layer_switches", float_of_int !switches);
      ]
  in
  (* a unit is one captured system, exported and analysed *)
  rep ph ~units:!analysed ~completed:!analysed ~outputs ~counters

(* The program's own captures at the same seeds. *)
let cross_check size ~seed =
  each_capture size seed (fun expt _ s ->
      List.concat
        (List.mapi
           (fun k tel ->
             system_outputs
               ~key:(Printf.sprintf "%s.seed%d.%d" expt s k)
               ~exports:(export Span.off tel) ~report:(analyze Span.off tel)
               (Telemetry.engine tel))
           (Experiments.Trace_run.capture ~expt ~seed:s)))

let workload = { name = "adaptive_observed"; run; cross_check }
