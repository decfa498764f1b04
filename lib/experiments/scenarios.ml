open Cm_util
open Eventsim
open Netsim
open Cm_dynamics

type scenario_id = Burst_loss | Outage | Sawtooth
type app_id = Tcp_cm_bulk | Layered_stream

type result = {
  r_scenario : string;
  r_app : string;
  r_duration : Time.span;
  r_fault_start : Time.t;
  r_fault_clear : Time.t;
  r_goodput_bps : float;
  r_pre_bps : float;
  r_fault_bps : float;
  r_recovery : Time.span option;
  r_layer_switches : int option;
  r_stats : Link.stats;
}

let duration = Time.sec 24.
let warmup = Time.sec 3.
let bin = Time.ms 500

(* ---- canned scenarios --------------------------------------------------- *)

let ge_burst () = Loss.ge ~p_gb:0.01 ~p_bg:0.1 ~loss_bad:0.3 ()
(* stationary loss = (0.01/0.11)·0.3 ≈ 2.7 %, mean burst 10 packets *)

let name_of = function
  | Burst_loss -> "burst-loss"
  | Outage -> "outage-2s"
  | Sawtooth -> "sawtooth-bw"

let fault_steps = function
  | Burst_loss ->
      [
        ( Time.sec 8.,
          Scenario.Loss_burst
            { spec = Scenario.Loss_gilbert_elliott (ge_burst ()); duration = Time.sec 8. } );
      ]
  | Outage -> [ (Time.sec 8., Scenario.Outage (Time.sec 2.)) ]
  | Sawtooth ->
      (* two teeth: ramp 8 → 2 Mbit/s over 3 s, then snap back *)
      let tooth at =
        [
          (at, Scenario.Ramp_bandwidth { to_bps = 2e6; over = Time.sec 3.; steps = 6 });
          (Time.add at (Time.sec 5.), Scenario.Set_bandwidth 8e6);
        ]
      in
      tooth (Time.sec 6.) @ tooth (Time.sec 13.)

let scenario_of id =
  let s =
    Scenario.make ~name:(name_of id)
      (List.map (fun (at, action) -> { Scenario.at; target = "fwd"; action }) (fault_steps id))
  in
  match id with
  | Burst_loss | Outage -> (s, Scenario.fault_window s)
  | Sawtooth ->
      (* renegotiations never "clear" per fault_window; the recovery clock
         starts at the last snap back to full rate *)
      (s, Some (Time.sec 6., Time.sec 18.))

let scenario_name id = (fst (scenario_of id)).Scenario.name
let app_name = function Tcp_cm_bulk -> "tcp-cm-bulk" | Layered_stream -> "layered-alf"

(* ---- topology: the pipe and its faults in the spec DSL ------------------ *)

let spec_of id =
  Cm_spec.Spec.(
    par
      [
        node "a";
        node "b";
        link ~name:"fwd" ~queue:50 ~bw:8e6 ~lat:(Time.ms 20) "a" "b";
        link ~name:"rev" ~queue:1000 ~bw:8e6 ~lat:(Time.ms 20) "b" "a";
        faults ~target:"fwd" (fault_steps id);
      ])

(* (sender, receiver, fwd, rev, scenario), compiled from [spec_of] *)
let make_net engine rng id =
  let ir = Cm_spec.Check.elaborate_exn (spec_of id) in
  let b = Cm_spec.Build.instantiate ~rng engine ir in
  ( Cm_spec.Build.host b "a",
    Cm_spec.Build.host b "b",
    Cm_spec.Build.link b "fwd",
    Cm_spec.Build.link b "rev",
    Cm_spec.Build.scenario ~name:(name_of id) ir )

(* ---- the two applications under test ------------------------------------ *)

(* goodput timeline (value = bytes) + layer switches + forward-link stats *)
let run_bulk params id =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine and rng = sys.rng in
  let a, b, ab, ba, scenario = make_net engine rng id in
  let links = [ ("fwd", ab); ("rev", ba) ] in
  let cm = Exp_common.create_cm sys ~host:a () in
  Exp_common.observe sys ~links ~cm ();
  let tl = Timeline.create () in
  let _listener =
    Tcp.Conn.listen b ~port:80
      ~on_accept:(fun conn ->
        Tcp.Conn.on_receive conn (fun n -> Timeline.record tl (Engine.now engine) (float_of_int n)))
      ()
  in
  let conn =
    Tcp.Conn.connect a ~dst:(Addr.endpoint ~host:1 ~port:80) ~driver:(Tcp.Conn.Cm_driven cm) ()
  in
  Tcp.Conn.send conn (1 lsl 34);
  Scenario.compile engine ~rng ~links scenario;
  Engine.run_for engine duration;
  (tl, None, Link.stats ab)

let run_layered params id =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine and rng = sys.rng in
  let a, b, ab, ba, scenario = make_net engine rng id in
  let links = [ ("fwd", ab); ("rev", ba) ] in
  let cm = Exp_common.create_cm sys ~host:a ~mtu:1000 () in
  Exp_common.observe sys ~links ~cm ();
  let lib = Libcm.create a cm () in
  let _receiver = Udp.Cc_socket.run_echo_receiver b ~port:5004 () in
  let source =
    Cm_apps.Layered.create lib ~host:a
      ~dst:(Addr.endpoint ~host:1 ~port:5004)
      ~layers:[| 1e6; 2e6; 4e6; 8e6 |]
      ~mode:Cm_apps.Layered.Alf ~packet_bytes:1000 ()
  in
  Cm_apps.Layered.start source;
  Scenario.compile engine ~rng ~links scenario;
  Engine.run_for engine duration;
  Cm_apps.Layered.stop source;
  let switches = Timeline.changes (Cm_apps.Layered.layer_timeline source) in
  (Cm_apps.Layered.tx_timeline source, Some switches, Link.stats ab)

(* ---- metrics ------------------------------------------------------------ *)

let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let mean_rate bins ~from_ ~until =
  mean (List.filter_map (fun (t, v) -> if t >= from_ && t < until then Some v else None) bins)

let analyze ~bins_bps ~fault_start ~fault_clear =
  let pre = mean_rate bins_bps ~from_:warmup ~until:fault_start in
  let during = mean_rate bins_bps ~from_:fault_start ~until:fault_clear in
  let recovery =
    (* first full bin at or after clearance that reaches 80 % of the
       pre-fault goodput; the recovery time runs to that bin's end *)
    List.find_map
      (fun (t, v) -> if t >= fault_clear && v >= 0.8 *. pre then Some (t + bin - fault_clear) else None)
      bins_bps
  in
  (pre, during, recovery)

let run_one params ~scenario ~app =
  let sc, window = scenario_of scenario in
  let fault_start, fault_clear =
    match window with Some w -> w | None -> (Time.zero, Time.zero)
  in
  let tl, switches, stats =
    match app with
    | Tcp_cm_bulk -> run_bulk params scenario
    | Layered_stream -> run_layered params scenario
  in
  let bins_bps =
    List.map (fun (t, bytes_per_s) -> (t, bytes_per_s *. 8.)) (Timeline.rate_series tl ~bin ~until:duration)
  in
  let total_bytes = List.fold_left (fun acc (p : Timeline.point) -> acc +. p.Timeline.value) 0. (Timeline.points tl) in
  let pre, during, recovery = analyze ~bins_bps ~fault_start ~fault_clear in
  {
    r_scenario = sc.Scenario.name;
    r_app = app_name app;
    r_duration = duration;
    r_fault_start = fault_start;
    r_fault_clear = fault_clear;
    r_goodput_bps = total_bytes *. 8. /. Time.to_float_s duration;
    r_pre_bps = pre;
    r_fault_bps = during;
    r_recovery = recovery;
    r_layer_switches = switches;
    r_stats = stats;
  }

let run params =
  List.concat_map
    (fun scenario ->
      List.map (fun app -> run_one params ~scenario ~app) [ Tcp_cm_bulk; Layered_stream ])
    [ Burst_loss; Outage; Sawtooth ]

(* ---- JSON output -------------------------------------------------------- *)

let result_json r =
  let open Exp_common.Json in
  let span_opt = function Some s -> Float (Time.to_float_s s) | None -> Null in
  Obj
    [
      ("scenario", Str r.r_scenario);
      ("app", Str r.r_app);
      ("duration_s", Float (Time.to_float_s r.r_duration));
      ("fault_start_s", Float (Time.to_float_s r.r_fault_start));
      ("fault_clear_s", Float (Time.to_float_s r.r_fault_clear));
      ("goodput_kbps", Float (Exp_common.kbps r.r_goodput_bps));
      ("pre_fault_kbps", Float (Exp_common.kbps r.r_pre_bps));
      ("fault_kbps", Float (Exp_common.kbps r.r_fault_bps));
      ("recovery_s", span_opt r.r_recovery);
      ( "layer_switches",
        match r.r_layer_switches with Some n -> Int n | None -> Null );
      ( "fwd_link",
        Obj
          [
            ("delivered_pkts", Int r.r_stats.Link.delivered_pkts);
            ("queue_drops", Int r.r_stats.Link.queue_drops);
            ("channel_drops", Int r.r_stats.Link.channel_drops);
            ("down_drops", Int r.r_stats.Link.down_drops);
          ] );
    ]

let to_json params results =
  let open Exp_common.Json in
  Obj
    [
      ("seed", Int params.Exp_common.seed);
      ("results", List (List.map result_json results));
    ]

let print params results =
  Exp_common.print_header
    "Scenario experiments: fault injection, dynamics & recovery (JSON)";
  Exp_common.print_row (Exp_common.Json.to_string (to_json params results))
