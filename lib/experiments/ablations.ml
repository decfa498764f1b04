open Cm_util
open Eventsim
open Netsim

(* ------------------------------------------------------------------ *)
(* Scheduler ablation *)

type sched_row = {
  scheduler : string;
  flow_a_bytes : int;
  flow_b_bytes : int;
  share_ratio : float;
}

let run_one_sched params ~name ~scheduler ~weight_a =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine in
  let net = Topology.pipe engine ~bandwidth_bps:4e6 ~delay:(Time.ms 20) ~rng:sys.rng () in
  let cm = Exp_common.create_cm sys ~host:net.Topology.a ~mtu:1000 ~scheduler () in
  Exp_common.observe sys ~links:(Exp_common.pipe_links net) ~cm ();
  let _r1 = Udp.Cc_socket.run_echo_receiver net.Topology.b ~port:7001 () in
  let _r2 = Udp.Cc_socket.run_echo_receiver net.Topology.b ~port:7002 () in
  let sock_a = Udp.Cc_socket.create net.Topology.a ~cm ~dst:(Addr.endpoint ~host:1 ~port:7001) () in
  let sock_b = Udp.Cc_socket.create net.Topology.a ~cm ~dst:(Addr.endpoint ~host:1 ~port:7002) () in
  (match weight_a with
  | Some w -> Cm.set_weight cm (Udp.Cc_socket.flow sock_a) w
  | None -> ());
  (* keep both sockets backlogged *)
  let tick () =
    List.iter
      (fun s ->
        let room = 64 - Udp.Cc_socket.queued s in
        for _ = 1 to room do
          Udp.Cc_socket.send s 1000
        done)
      [ sock_a; sock_b ]
  in
  let timer = Timer.create engine ~callback:tick in
  tick ();
  Timer.start_periodic timer (Time.ms 50);
  Engine.run_for engine (Time.sec 20.);
  Timer.stop timer;
  let a = Udp.Cc_socket.bytes_sent sock_a and b = Udp.Cc_socket.bytes_sent sock_b in
  {
    scheduler = name;
    flow_a_bytes = a;
    flow_b_bytes = b;
    share_ratio = float_of_int a /. float_of_int (Stdlib.max 1 b);
  }

let run_scheduler params =
  [
    run_one_sched params ~name:"round-robin" ~scheduler:Cm.Scheduler.round_robin ~weight_a:None;
    run_one_sched params ~name:"weighted 3:1" ~scheduler:Cm.Scheduler.weighted
      ~weight_a:(Some 3.0);
  ]

(* ------------------------------------------------------------------ *)
(* Controller ablation *)

type ctrl_row = { controller : string; mean_kbps : float; cv : float }

let run_one_ctrl params ~name ~controller =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine in
  let net =
    Topology.pipe engine ~bandwidth_bps:8e6 ~delay:(Time.ms 25) ~qdisc_limit:30 ~rng:sys.rng ()
  in
  let cm = Exp_common.create_cm sys ~host:net.Topology.a ~mtu:1000 ~controller () in
  Exp_common.observe sys ~links:(Exp_common.pipe_links net) ~cm ();
  let receiver = Udp.Cc_socket.run_echo_receiver net.Topology.b ~port:7001 () in
  ignore receiver;
  let sock = Udp.Cc_socket.create net.Topology.a ~cm ~dst:(Addr.endpoint ~host:1 ~port:7001) () in
  let tick () =
    let room = 64 - Udp.Cc_socket.queued sock in
    for _ = 1 to room do
      Udp.Cc_socket.send sock 1000
    done
  in
  let timer = Timer.create engine ~callback:tick in
  tick ();
  Timer.start_periodic timer (Time.ms 20);
  (* sample the delivered rate every 100 ms after 2 s of warmup *)
  let samples = Stats.create () in
  let last_bytes = ref 0 in
  let sampler =
    Timer.create engine ~callback:(fun () ->
        let b = Udp.Cc_socket.bytes_sent sock in
        if Time.to_float_s (Engine.now engine) > 2. then
          Stats.add samples (float_of_int (b - !last_bytes) /. 0.1 /. 1000.);
        last_bytes := b)
  in
  Timer.start_periodic sampler (Time.ms 100);
  Engine.run_for engine (Time.sec 30.);
  Timer.stop timer;
  Timer.stop sampler;
  let mean = Stats.mean samples in
  { controller = name; mean_kbps = mean; cv = Stats.stddev samples /. mean }

let run_controller params =
  [
    run_one_ctrl params ~name:"AIMD" ~controller:(Cm.Controller.aimd ());
    run_one_ctrl params ~name:"IIAD (k=1,l=0)" ~controller:(Cm.Controller.iiad ());
    run_one_ctrl params ~name:"SQRT (k=.5,l=.5)" ~controller:(Cm.Controller.sqrt_ctl ());
    run_one_ctrl params ~name:"equation (TFRC)" ~controller:(Cm.Controller.equation ());
  ]

(* ------------------------------------------------------------------ *)
(* Sharing ablation *)

type share_row = {
  setup : string;
  mean_completion_ms : float;
  max_completion_ms : float;
  total_retransmits : int;
}

let run_one_share params ~name ~use_cm =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine in
  let net =
    Topology.pipe engine ~bandwidth_bps:6e6 ~delay:(Time.ms 25) ~qdisc_limit:40 ~rng:sys.rng ()
  in
  let cm = if use_cm then Some (Exp_common.create_cm sys ~host:net.Topology.b ()) else None in
  Exp_common.observe sys ~links:(Exp_common.pipe_links net) ?cm ();
  let server_driver =
    match cm with Some cm -> Tcp.Conn.Cm_driven cm | None -> Tcp.Conn.Native
  in
  let retransmits = ref 0 in
  let _server =
    Tcp.Conn.listen net.Topology.b ~port:80 ~driver:server_driver
      ~on_accept:(fun conn ->
        let responded = ref false in
        Tcp.Conn.on_receive conn (fun _ ->
            if not !responded then begin
              responded := true;
              Tcp.Conn.send conn (256 * 1024);
              Tcp.Conn.close conn
            end);
        Tcp.Conn.on_closed conn (fun () ->
            retransmits := !retransmits + (Tcp.Conn.stats conn).Tcp.Conn.retransmits))
      ()
  in
  let results = ref [] in
  Cm_apps.Web.concurrent_fetches net.Topology.a
    ~dst:(Addr.endpoint ~host:1 ~port:80)
    ~expect_bytes:(256 * 1024) ~count:4
    ~on_done:(fun rs -> results := rs)
    ();
  Engine.run_for engine (Time.sec 30.);
  let durations =
    List.map (fun r -> Time.to_float_ms r.Cm_apps.Web.duration) !results
  in
  match durations with
  | [] -> failwith "ablation_share: fetches did not complete"
  | ds ->
      {
        setup = name;
        mean_completion_ms = List.fold_left ( +. ) 0. ds /. float_of_int (List.length ds);
        max_completion_ms = List.fold_left Float.max 0. ds;
        total_retransmits = !retransmits;
      }

let run_sharing params =
  [
    run_one_share params ~name:"independent (4x TCP/Linux)" ~use_cm:false;
    run_one_share params ~name:"shared macroflow (4x TCP/CM)" ~use_cm:true;
  ]

(* ------------------------------------------------------------------ *)

let print_scheduler rows =
  Exp_common.print_header "Ablation: macroflow scheduler (two backlogged CC-UDP flows, 20 s)";
  Exp_common.print_row (Printf.sprintf "%-14s %12s %12s %8s" "scheduler" "flowA(B)" "flowB(B)" "A/B");
  List.iter
    (fun r ->
      Exp_common.print_row
        (Printf.sprintf "%-14s %12d %12d %8.2f" r.scheduler r.flow_a_bytes r.flow_b_bytes
           r.share_ratio))
    rows

let print_controller rows =
  Exp_common.print_header "Ablation: congestion controller family (8 Mbps bottleneck, 30 s)";
  Exp_common.print_row (Printf.sprintf "%-18s %14s %14s" "controller" "mean KB/s" "rate CV");
  List.iter
    (fun r ->
      Exp_common.print_row (Printf.sprintf "%-18s %14.1f %14.3f" r.controller r.mean_kbps r.cv))
    rows

let print_sharing rows =
  Exp_common.print_header "Ablation: 4 concurrent fetches, independent vs shared congestion state";
  Exp_common.print_row
    (Printf.sprintf "%-30s %12s %12s %10s" "setup" "mean ms" "max ms" "rexmits");
  List.iter
    (fun r ->
      Exp_common.print_row
        (Printf.sprintf "%-30s %12.1f %12.1f %10d" r.setup r.mean_completion_ms
           r.max_completion_ms r.total_retransmits))
    rows

(* ------------------------------------------------------------------ *)
(* Fairness ablation: Jain's index across a mixed ensemble *)

type fairness_row = {
  mix : string;
  per_flow_kb : int list;
  jain : float;  (** Jain's fairness index: 1.0 = perfectly fair. *)
}

let jain_index xs =
  let n = float_of_int (List.length xs) in
  let s = List.fold_left ( +. ) 0. xs in
  let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  if s2 = 0. then 1. else s *. s /. (n *. s2)

let run_one_fairness params ~name ~cm_flows ~native_flows =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine in
  let net =
    Topology.pipe engine ~bandwidth_bps:8e6 ~delay:(Time.ms 20) ~qdisc_limit:60
      ~loss_rate:0.002 ~rng:sys.rng ()
  in
  let cm = Exp_common.create_cm sys ~host:net.Topology.a () in
  Exp_common.observe sys ~links:(Exp_common.pipe_links net) ~cm ();
  let totals = ref [] in
  let start_flow ~port ~driver =
    let delivered = ref 0 in
    totals := delivered :: !totals;
    let _l =
      Tcp.Conn.listen net.Topology.b ~port
        ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> delivered := !delivered + n))
        ()
    in
    let c = Tcp.Conn.connect net.Topology.a ~dst:(Addr.endpoint ~host:1 ~port) ~driver () in
    Tcp.Conn.send c (1 lsl 27)
  in
  for i = 0 to native_flows - 1 do
    start_flow ~port:(80 + i) ~driver:Tcp.Conn.Native
  done;
  for i = 0 to cm_flows - 1 do
    start_flow ~port:(180 + i) ~driver:(Tcp.Conn.Cm_driven cm)
  done;
  Engine.run_for engine (Time.sec 30.);
  let per_flow = List.rev_map (fun r -> !r) !totals in
  {
    mix = name;
    per_flow_kb = List.map (fun b -> b / 1000) per_flow;
    jain = jain_index (List.map float_of_int per_flow);
  }

let run_fairness params =
  [
    run_one_fairness params ~name:"4 native TCP" ~cm_flows:0 ~native_flows:4;
    run_one_fairness params ~name:"4 TCP/CM (one macroflow)" ~cm_flows:4 ~native_flows:0;
    run_one_fairness params ~name:"2 native + 2 TCP/CM" ~cm_flows:2 ~native_flows:2;
  ]

let print_fairness rows =
  Exp_common.print_header
    "Ablation: fairness across flow ensembles (8 Mbit/s bottleneck, 30 s, Jain index)";
  Exp_common.print_row (Printf.sprintf "%-26s %8s   %s" "mix" "Jain" "per-flow KB");
  List.iter
    (fun r ->
      Exp_common.print_row
        (Printf.sprintf "%-26s %8.3f   [%s]" r.mix r.jain
           (String.concat " " (List.map string_of_int r.per_flow_kb))))
    rows
