(* pipe_stream: the Fig. 6 pipe (100 Mbit/s, 50 us, Pentium-III cost
   model, window 32) carrying two back-to-back legs, each on a fresh
   system the way Fig6 builds one per variant:

   - a TCP/CM bulk transfer of 1448-byte segments (Fig6's TCP/CM macro);
   - an ALF transfer of 168-byte packets over a UDP socket, driven through
     Libcm.request / register_send (Fig6's ALF variant, Table 1's row).

   The pipe is built here from the public constructors exactly as
   Topology.pipe builds it, so the link sinks and host routes are the
   benchmark's closures and can carry spans. *)

open Cm_util
open Eventsim
open Netsim
open Common

let window = 32
let tcp_size = 1448
let alf_size = 168
let packets = function Full -> 20_000 | Tiny -> 500

type net = { engine : Engine.t; a : Host.t; b : Host.t; ab : Link.t; ba : Link.t }

(* Topology.pipe's construction, with the closures it would install. *)
let make_net tr ~seed ~prof =
  let engine = Engine.create () in
  if prof then Engine.enable_prof engine;
  let rng = Rng.create ~seed in
  let bandwidth_bps = 100e6 and delay = Time.us 50 and costs = Costs.pentium3 in
  let a = Host.create engine ~id:0 ~costs () in
  let b = Host.create engine ~id:1 ~costs () in
  let sink h =
    if Span.enabled tr then fun pkt ->
      let s = Span.enter tr Span.Tcp_rx in
      Host.deliver h pkt;
      Span.leave tr s
    else fun pkt -> Host.deliver h pkt
  in
  let route l =
    if Span.enabled tr then fun pkt ->
      let s = Span.enter tr Span.Link_send in
      Link.send l pkt;
      Span.leave tr s
    else Link.send l
  in
  let ab =
    Link.create engine ~bandwidth_bps ~delay
      ~qdisc:(Queue_disc.droptail ~limit_pkts:500 ())
      ~loss_rate:0. ~rng ~sink:(sink b) ()
  in
  let ba =
    Link.create engine ~bandwidth_bps ~delay
      ~qdisc:(Queue_disc.droptail ~limit_pkts:500 ())
      ~sink:(sink a) ()
  in
  Host.attach_route a (route ab);
  Host.attach_route b (route ba);
  { engine; a; b; ab; ba }

(* Fig6's run loop: 50 ms slices until the transfer ends (at most 100 s). *)
let drive tr net t_end =
  let guard = ref 0 in
  while !t_end = None && !guard < 2_000 do
    incr guard;
    spanned tr Span.Run_for (fun () -> Engine.run_for net.engine (Time.ms 50))
  done;
  match !t_end with Some t -> t | None -> Engine.now net.engine

let us_per_packet ~t0 ~finish ~n = Time.to_float_us (Time.diff finish t0) /. float_of_int n

type leg = {
  outputs : (string * string) list;
  completed : int;
  net : net;
  cms : Cm.t list;
  counters : (string * float) list;
}

let tcp_leg ph tr ~seed ~n ~prof =
  let size = tcp_size in
  let net, cm, conn, server_conn, delivered, t_end, t0 =
    setup ph (fun () ->
        let net = make_net tr ~seed ~prof in
        let cm = Cm.create net.engine ~mtu:size () in
        Cm.attach cm net.a;
        let lib = Libcm.create net.a cm () in
        let meter = Libcm.meter lib in
        let config =
          { Tcp.Conn.default_config with Tcp.Conn.mss = size; delayed_acks = true; rwnd = window * size }
        in
        (* the webserver-like app: one send() and one select() per data
           segment, charged as it reaches the IP layer *)
        Host.add_tx_hook net.a (fun pkt ->
            let s = Span.enter tr Span.Apps_cb in
            if pkt.Packet.flow.Addr.proto = Addr.Tcp && Packet.payload_bytes pkt > 0 then begin
              Libcm.Ops.charge meter ~bytes:size Libcm.Ops.Send;
              Libcm.Ops.charge meter ~nfds:1 Libcm.Ops.Select
            end;
            Span.leave tr s);
        let total = n * size in
        let delivered = ref 0 and t_end = ref None and server_conn = ref None in
        let _listener =
          Tcp.Conn.listen net.b ~port:80 ~config
            ~on_accept:(fun c ->
              server_conn := Some c;
              Tcp.Conn.on_receive c (fun got ->
                  let s = Span.enter tr Span.Apps_cb in
                  delivered := !delivered + got;
                  if !delivered >= total && !t_end = None then t_end := Some (Engine.now net.engine);
                  Span.leave tr s))
            ()
        in
        let conn =
          Tcp.Conn.connect net.a ~dst:(Addr.endpoint ~host:1 ~port:80)
            ~driver:(Tcp.Conn.Cm_driven cm) ~config ()
        in
        let t0 = Engine.now net.engine in
        spanned tr Span.Tcp_send (fun () -> Tcp.Conn.send conn total);
        (net, cm, conn, server_conn, delivered, t_end, t0))
  in
  let finish = run ph (fun () -> drive tr net t_end) in
  let rx =
    match !server_conn with Some c -> Tcp.Conn.stats c | None -> Tcp.Conn.stats conn
  in
  let tx = Tcp.Conn.stats conn in
  let outputs =
    [
      ("tcp.us_per_packet", float_out (us_per_packet ~t0 ~finish ~n));
      ("tcp.events", int_out (Engine.events_executed net.engine));
      ("tcp.final_clock_ns", int_out (Engine.now net.engine));
    ]
    @ link_outputs "tcp.fwd" (Link.stats net.ab)
    @ link_outputs "tcp.rev" (Link.stats net.ba)
    @ cm_outputs "tcp.cm" (Cm.counters cm)
    @ tcp_outputs "tcp.sender" tx
    @ tcp_outputs "tcp.receiver" rx
  in
  let sum g = float_of_int (g tx + g rx) in
  let counters =
    Tcp.Conn.
      [
        ("tcp.segments_out", sum (fun s -> s.segments_out));
        ("tcp.acks_out", sum (fun s -> s.acks_out));
        ("tcp.retransmits", sum (fun s -> s.retransmits));
        ("tcp.timeouts", sum (fun s -> s.timeouts));
        ("tcp.connections", 1.);
      ]
  in
  { outputs; completed = min n (!delivered / size); net; cms = [ cm ]; counters }

let alf_leg ph tr ~seed ~n ~prof =
  let size = alf_size in
  let net, cm, meter, acked, t_end, t0 =
    setup ph (fun () ->
        let net = make_net tr ~seed ~prof in
        let cm = Cm.create net.engine ~mtu:size () in
        Cm.attach cm net.a;
        let lib = Libcm.create net.a cm () in
        let meter = Libcm.meter lib in
        let costs = Host.costs net.a in
        (* plain per-packet echo receiver on host b *)
        let server = Udp.Socket.create net.b ~port:70 () in
        Udp.Socket.on_receive server (fun pkt ->
            let s = Span.enter tr Span.Apps_cb in
            (match pkt.Packet.payload with
            | Udp.Feedback.Data { seq; bytes; ts } ->
                let u = Span.enter tr Span.Udp_send in
                Udp.Socket.sendto server ~dst:pkt.Packet.flow.Addr.src ~payload_bytes:32
                  (Udp.Feedback.Ack { max_seq = seq; count = 1; bytes; ts_echo = ts });
                Span.leave tr u
            | _ -> ());
            Span.leave tr s);
        let socket = Udp.Socket.create net.a () in
        let dst = Addr.endpoint ~host:1 ~port:70 in
        Udp.Socket.connect socket dst;
        let key = Addr.flow ~src:(Udp.Socket.local socket) ~dst ~proto:Addr.Udp () in
        let fid = Libcm.open_flow lib key in
        let scheduled = ref 0 and acked = ref 0 and t_end = ref None and next_seq = ref 0 in
        (* transmit one committed packet once the CPU has executed the
           send syscall; kernel UDP/IP output is charged before the wire *)
        let send_one_deferred () =
          let extra = costs.Costs.udp_proc + costs.Costs.ip_proc in
          Libcm.Ops.charge_deferred meter ~bytes:size Libcm.Ops.Send (fun () ->
              let s = Span.enter tr Span.Apps_cb in
              Cpu.charge (Host.cpu net.a) extra;
              let seq = !next_seq in
              incr next_seq;
              let u = Span.enter tr Span.Udp_send in
              Udp.Socket.send socket ~payload_bytes:size
                (Udp.Feedback.Data { seq; bytes = size; ts = Engine.now net.engine });
              Span.leave tr u;
              Span.leave tr s)
        in
        let pump () =
          while !scheduled < n && !scheduled - !acked < window do
            incr scheduled;
            let s = Span.enter tr Span.Libcm_request in
            Libcm.request lib fid;
            Span.leave tr s
          done
        in
        (* every issued request corresponds to one committed packet *)
        Libcm.register_send lib fid (fun _ ->
            let s = Span.enter tr Span.Libcm_cb in
            send_one_deferred ();
            Span.leave tr s);
        Udp.Socket.on_receive socket (fun pkt ->
            let s = Span.enter tr Span.Apps_cb in
            (match pkt.Packet.payload with
            | Udp.Feedback.Ack { max_seq = _; count; bytes; ts_echo } ->
                (* receive interrupt, kernel UDP input, then the app's recv
                   and RTT timestamping *)
                Cpu.charge (Host.cpu net.a) (costs.Costs.intr_rx + costs.Costs.udp_proc);
                Libcm.app_recv lib ~bytes:32;
                Libcm.app_gettimeofday lib;
                Libcm.app_gettimeofday lib;
                acked := !acked + count;
                let rtt = Time.diff (Engine.now net.engine) ts_echo in
                let u = Span.enter tr Span.Libcm_update in
                Libcm.update lib fid ~nsent:bytes ~nrecd:bytes ~loss:Cm.Cm_types.No_loss ~rtt ();
                Span.leave tr u;
                if !acked >= n && !t_end = None then t_end := Some (Engine.now net.engine)
                else pump ()
            | _ -> ());
            Span.leave tr s);
        let t0 = Engine.now net.engine in
        pump ();
        (net, cm, meter, acked, t_end, t0))
  in
  let finish = run ph (fun () -> drive tr net t_end) in
  let ops =
    List.map
      (fun k -> (Libcm.Ops.to_string k, Libcm.Ops.count meter k))
      Libcm.Ops.all
  in
  let outputs =
    [
      ("alf.us_per_packet", float_out (us_per_packet ~t0 ~finish ~n));
      ("alf.events", int_out (Engine.events_executed net.engine));
      ("alf.final_clock_ns", int_out (Engine.now net.engine));
    ]
    @ List.map (fun (k, c) -> ("alf.ops." ^ k, int_out c)) ops
    @ link_outputs "alf.fwd" (Link.stats net.ab)
    @ link_outputs "alf.rev" (Link.stats net.ba)
    @ cm_outputs "alf.cm" (Cm.counters cm)
  in
  let counters =
    List.map
      (fun (k, c) -> ("libcm.ops_per_pkt." ^ op_key k, float_of_int c /. float_of_int n))
      ops
  in
  { outputs; completed = min n !acked; net; cms = [ cm ]; counters }

let run size ~seed tr =
  let n = packets size in
  let prof = Span.enabled tr in
  let ph = phases () in
  let tcp = tcp_leg ph tr ~seed ~n ~prof in
  let tcp_run_s = ph.p_run in
  let alf = alf_leg ph tr ~seed ~n ~prof in
  let cms = tcp.cms @ alf.cms in
  let counters =
    engine_counters [ tcp.net.engine; alf.net.engine ]
    @ link_counters [ tcp.net.ab; tcp.net.ba; alf.net.ab; alf.net.ba ]
    @ [
        ("cm.grants", float_of_int (List.fold_left (fun a c -> a + (Cm.counters c).Cm.grants) 0 cms));
        ("cm.teardown_probes", float_of_int (List.fold_left (fun a c -> a + Cm.teardown_probes c) 0 cms));
        ("tcp.leg_run_s", tcp_run_s);
        ("libcm.alf_leg_run_s", ph.p_run -. tcp_run_s);
      ]
    @ tcp.counters @ alf.counters
  in
  rep ph ~units:(2 * n) ~completed:(tcp.completed + alf.completed)
    ~outputs:(tcp.outputs @ alf.outputs) ~counters

(* The program's own Fig. 6 runs at the same size. *)
let cross_check size ~seed =
  let n = packets size in
  let params = { Experiments.Exp_common.default_params with seed } in
  let m = Experiments.Fig6.measure_macro params Experiments.Fig6.Tcp_cm ~size:tcp_size ~n in
  let us, meter = Experiments.Fig6.measure_variant params Experiments.Fig6.Alf ~size:alf_size ~n in
  [
    ("tcp.us_per_packet", float_out m.Experiments.Fig6.m_us_per_packet);
    ("tcp.events", int_out m.Experiments.Fig6.m_events);
    ("tcp.final_clock_ns", int_out m.Experiments.Fig6.m_final_clock);
  ]
  @ link_outputs "tcp.fwd" m.Experiments.Fig6.m_fwd
  @ link_outputs "tcp.rev" m.Experiments.Fig6.m_rev
  @ [ ("alf.us_per_packet", float_out us) ]
  @ List.map
      (fun k -> ("alf.ops." ^ Libcm.Ops.to_string k, int_out (Libcm.Ops.count meter k)))
      Libcm.Ops.all

let workload = { name = "pipe_stream"; run; cross_check }
