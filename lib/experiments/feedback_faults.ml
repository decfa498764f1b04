open Cm_util
open Eventsim
open Netsim
open Cm_dynamics

(* Feedback-plane fault experiment family: an honest cmproto macroflow
   whose *control* traffic — and only it — is degraded by seeded
   Control_faults injectors, while the data path stays pristine.  Four
   cases quantify the cmproto hardening: a lossless baseline, a total
   10 s feedback blackout (decay to the floor, recover by slow start), a
   degraded plane (30% drop + 15% duplication + 20 ms jitter reordering),
   and a receiver-agent crash/restart resynchronization.  The CM runs
   fully defended, the invariant auditor sweeps every 500 ms, and the
   output is deterministic JSON keyed only by the seed. *)

type case = Baseline | Blackout | Degraded | Crash_restart

let all_cases = [ Baseline; Blackout; Degraded; Crash_restart ]

let case_name = function
  | Baseline -> "baseline"
  | Blackout -> "blackout"
  | Degraded -> "degraded"
  | Crash_restart -> "crash_restart"

let duration = Time.sec 28.
let warmup = Time.sec 3.
let fault_at = Time.sec 8.
let fault_hold = Time.sec 10.
let fault_end = Time.add fault_at fault_hold

(* the ISSUE acceptance window: goodput back to >= 0.9x pre-fault within
   5 s of feedback returning; we measure the tail half of that window *)
let recover_from = Time.add fault_end (Time.sec 2.5)
let recover_until = Time.add fault_end (Time.sec 5.)
let packet_bytes = 1000
let window = 64

let blackout_profile =
  { Control_faults.drop = 1.0; dup = 0.0; delay = 0; jitter = 0 }

let degraded_profile =
  { Control_faults.drop = 0.3; dup = 0.15; delay = 0; jitter = Time.ms 20 }

type result = {
  r_case : string;
  r_pre_bps : float;  (** receiver goodput, warmup → fault onset *)
  r_fault_bps : float;  (** receiver goodput across the fault window *)
  r_recover_bps : float;  (** receiver goodput in the acceptance window *)
  r_recovery_ratio : float;  (** recover vs own pre-fault *)
  r_fault_ratio : float;  (** fault-window goodput vs the baseline run's *)
  r_floor_cwnd : int;  (** smallest cwnd observed during the fault *)
  r_packets_sent : int;
  r_solicits : int;
  r_defense : Cmproto.Sender_agent.counters;
  r_receiver_epoch : int;
  r_receiver_resyncs : int;
  r_dropped_while_down : int;
  r_injected : Control_faults.counters option;  (** sender-side injector *)
  r_watchdog_fires : int;
  r_audit_runs : int;
  r_audit_violations : string list;
}

let run_case params case =
  (* this family always runs defended — it measures the defenses *)
  Exp_common.with_system { params with Exp_common.defenses = true } @@ fun sys ->
  let engine = sys.engine and rng = sys.rng in
  let net = Topology.pipe engine ~bandwidth_bps:8e6 ~delay:(Time.ms 20) ~qdisc_limit:50 ~rng () in
  let cm = Exp_common.create_cm sys ~host:net.Topology.a () in
  Exp_common.observe sys ~links:[ ("fwd", net.Topology.ab); ("rev", net.Topology.ba) ] ~cm ();
  (* control-plane injectors go on first: host receive filters run in
     registration order, and the agents' filters must see what survives
     injection, not the other way around *)
  let snd_inj = Control_faults.install net.Topology.a ~classify:Cmproto.is_control in
  let rcv_inj = Control_faults.install net.Topology.b ~classify:Cmproto.is_control in
  let agent = Cmproto.Sender_agent.install net.Topology.a cm in
  Option.iter (Cmproto.Sender_agent.register_gauges agent) sys.telemetry;
  let receiver = Cmproto.Receiver_agent.install net.Topology.b ~ack_every:2 () in
  (* receiver-side goodput: whatever reaches the application after the
     agent strips the CM header (registered after the receiver agent, so
     it sees the unwrapped survivors only) *)
  let goodput = Timeline.create () in
  Host.add_rx_filter net.Topology.b (fun pkt ->
      (match pkt.Packet.payload with
      | Packet.Raw bytes when pkt.Packet.flow.Addr.dst.Addr.port = 7000 ->
          Timeline.record goodput (Engine.now engine) (float_of_int bytes)
      | _ -> ());
      Some pkt);
  let session =
    Cmproto.Session.create agent ~host:net.Topology.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ~queue_limit_pkts:(window * 2) ()
  in
  (* an unbounded source: keep the session's queue topped up *)
  let pump =
    Timer.create engine ~callback:(fun () ->
        while Cmproto.Session.queued session < window do
          Cmproto.Session.send session packet_bytes
        done)
  in
  Timer.start_periodic pump (Time.ms 2);
  (* the fault schedule, as a Scenario over the control injectors *)
  let scenario_steps =
    match case with
    | Baseline | Crash_restart -> []
    | Blackout ->
        (* both directions dark: feedback dies at the sender, solicits at
           the receiver — a total control-plane partition *)
        [
          { Scenario.at = fault_at; target = "snd"; action = Scenario.Control_fault { profile = blackout_profile; duration = fault_hold } };
          { Scenario.at = fault_at; target = "rcv"; action = Scenario.Control_fault { profile = blackout_profile; duration = fault_hold } };
        ]
    | Degraded ->
        [
          { Scenario.at = fault_at; target = "snd"; action = Scenario.Control_fault { profile = degraded_profile; duration = fault_hold } };
        ]
  in
  (match scenario_steps with
  | [] -> ()
  | steps ->
      let sc = Scenario.make ~name:(case_name case) steps in
      Scenario.compile engine ~rng:(Rng.split rng) ~links:[]
        ~controls:[ ("snd", snd_inj); ("rcv", rcv_inj) ]
        sc);
  (match case with
  | Crash_restart ->
      ignore (Engine.schedule_at engine fault_at (fun () -> Cmproto.Receiver_agent.crash receiver));
      ignore
        (Engine.schedule_at engine (Time.add fault_at (Time.sec 2.)) (fun () ->
             Cmproto.Receiver_agent.restart receiver))
  | Baseline | Blackout | Degraded -> ());
  (* invariant auditor sweep every 500 ms *)
  let audit_runs = ref 0 in
  let violations = ref [] in
  let rec audit () =
    incr audit_runs;
    let rep = Cm.Audit.run cm in
    List.iter
      (fun v -> if not (List.mem v !violations) then violations := !violations @ [ v ])
      rep.Cm.Audit.violations;
    ignore (Engine.schedule_after engine (Time.ms 500) audit)
  in
  ignore (Engine.schedule_at engine (Time.ms 250) audit);
  (* floor probe: smallest cwnd while the fault holds (100 ms resolution) *)
  let floor_cwnd = ref max_int in
  let rec probe () =
    let now = Engine.now engine in
    if now >= fault_at && now < fault_end then begin
      let st = Cm.query cm (Cmproto.Session.flow session) in
      if st.Cm.Cm_types.cwnd < !floor_cwnd then floor_cwnd := st.Cm.Cm_types.cwnd
    end;
    if now < fault_end then ignore (Engine.schedule_after engine (Time.ms 100) probe)
  in
  ignore (Engine.schedule_at engine fault_at probe);
  Engine.run_for engine duration;
  Timer.stop pump;
  let injected =
    match case with
    | Baseline | Crash_restart -> None
    | Blackout | Degraded -> Some (Control_faults.counters snd_inj)
  in
  let pre = Exp_common.window_bps goodput ~from_:warmup ~until:fault_at in
  let fault = Exp_common.window_bps goodput ~from_:fault_at ~until:fault_end in
  let recover = Exp_common.window_bps goodput ~from_:recover_from ~until:recover_until in
  {
    r_case = case_name case;
    r_pre_bps = pre;
    r_fault_bps = fault;
    r_recover_bps = recover;
    r_recovery_ratio = (if pre > 0. then recover /. pre else 0.);
    r_fault_ratio = 0.;
    r_floor_cwnd = (if !floor_cwnd = max_int then 0 else !floor_cwnd);
    r_packets_sent = Cmproto.Session.packets_sent session;
    r_solicits = Cmproto.Session.solicits_sent session;
    r_defense = Cmproto.Sender_agent.counters agent;
    r_receiver_epoch = Cmproto.Receiver_agent.epoch receiver;
    r_receiver_resyncs = Cmproto.Receiver_agent.resyncs_sent receiver;
    r_dropped_while_down = Cmproto.Receiver_agent.dropped_while_down receiver;
    r_injected = injected;
    r_watchdog_fires = Cm.watchdog_fires cm;
    r_audit_runs = !audit_runs;
    r_audit_violations = !violations;
  }

let run params =
  let baseline = run_case params Baseline in
  let base_fault = baseline.r_fault_bps in
  List.map
    (fun case ->
      let r = if case = Baseline then baseline else run_case params case in
      { r with r_fault_ratio = (if base_fault > 0. then r.r_fault_bps /. base_fault else 0.) })
    all_cases

(* ---- JSON output -------------------------------------------------------- *)

let result_json r =
  let open Exp_common.Json in
  let d = r.r_defense in
  Obj
    [
      ("case", Str r.r_case);
      ("pre_kbps", Float (Exp_common.kbps r.r_pre_bps));
      ("fault_kbps", Float (Exp_common.kbps r.r_fault_bps));
      ("recover_kbps", Float (Exp_common.kbps r.r_recover_bps));
      ("recovery_ratio", Float r.r_recovery_ratio);
      ("fault_ratio_vs_baseline", Float r.r_fault_ratio);
      ("floor_cwnd_bytes", Int r.r_floor_cwnd);
      ("packets_sent", Int r.r_packets_sent);
      ("solicits", Int r.r_solicits);
      ( "defense",
        Obj
          [
            ("feedback_received", Int d.Cmproto.Sender_agent.feedback_received);
            ("orphan_feedback", Int d.Cmproto.Sender_agent.orphan_feedback);
            ("dup_feedback", Int d.Cmproto.Sender_agent.dup_feedback);
            ("stale_feedback", Int d.Cmproto.Sender_agent.stale_feedback);
            ("bad_echoes", Int d.Cmproto.Sender_agent.bad_echoes);
            ("resyncs", Int d.Cmproto.Sender_agent.resyncs);
          ] );
      ("receiver_epoch", Int r.r_receiver_epoch);
      ("receiver_resyncs", Int r.r_receiver_resyncs);
      ("dropped_while_down", Int r.r_dropped_while_down);
      ( "injected",
        match r.r_injected with
        | None -> Null
        | Some c ->
            Obj
              [
                ("matched", Int c.Control_faults.matched);
                ("passed", Int c.Control_faults.passed);
                ("dropped", Int c.Control_faults.dropped);
                ("duplicated", Int c.Control_faults.duplicated);
                ("delayed", Int c.Control_faults.delayed);
              ] );
      ("watchdog_fires", Int r.r_watchdog_fires);
      ("audit_runs", Int r.r_audit_runs);
      ("audit_ok", Bool (r.r_audit_violations = []));
      ("audit_violations", List (List.map (fun v -> Str v) r.r_audit_violations));
    ]

let to_json params results =
  let open Exp_common.Json in
  Obj
    [
      ("seed", Int params.Exp_common.seed);
      ("duration_s", Float (Time.to_float_s duration));
      ("fault_window_s", List [ Float (Time.to_float_s fault_at); Float (Time.to_float_s fault_end) ]);
      ("results", List (List.map result_json results));
    ]

let print params results =
  Exp_common.print_header
    "Feedback-plane faults: blackout / degradation / receiver restart vs the cmproto hardening \
     (JSON)";
  Exp_common.print_row (Exp_common.Json.to_string (to_json params results))
