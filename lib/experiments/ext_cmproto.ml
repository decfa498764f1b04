open Cm_util
open Eventsim
open Netsim

type row = {
  design : string;
  us_per_packet : float;
  ops : (string * float) list;
}

let size = 168
let window = 32

(* The CM-protocol sender: same windowed workload as Fig. 6's Buffered
   variant, but acknowledgment happens kernel-to-kernel. *)
let run_cmproto params ~n =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine in
  let net =
    Topology.pipe engine ~bandwidth_bps:100e6 ~delay:(Time.us 50) ~qdisc_limit:500
      ~reverse_qdisc_limit:500 ~rng:sys.rng ~costs:Costs.pentium3 ()
  in
  let costs = Host.costs net.Topology.a in
  let cm = Exp_common.create_cm sys ~host:net.Topology.a ~mtu:(size + Cmproto.header_bytes) () in
  Exp_common.observe sys ~links:(Exp_common.pipe_links net) ~cm ();
  let lib = Libcm.create net.Topology.a cm () in
  let meter = Libcm.meter lib in
  (* kernel costs of the protocol itself, charged before the agents run:
     the sender pays one interrupt + CM work per feedback packet *)
  Host.add_rx_filter net.Topology.a (fun pkt ->
      (match pkt.Packet.payload with
      | Cmproto.Feedback _ ->
          Cpu.charge (Host.cpu net.Topology.a) (costs.Costs.intr_rx + costs.Costs.cm_op)
      | _ -> ());
      Some pkt);
  let agent = Cmproto.Sender_agent.install net.Topology.a cm in
  let _receiver = Cmproto.Receiver_agent.install net.Topology.b ~ack_every:1 () in
  let session =
    Cmproto.Session.create agent ~host:net.Topology.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ~queue_limit_pkts:(window * 2) ()
  in
  (* the application's only boundary crossing: the send syscall *)
  Host.add_tx_hook net.Topology.a (fun pkt ->
      match pkt.Packet.payload with
      | Cmproto.Data _ -> Libcm.Ops.charge meter ~bytes:size Libcm.Ops.Send
      | _ -> ());
  let fed = ref 0 in
  let pump = Timer.create engine ~callback:(fun () ->
      while !fed < n && Cmproto.Session.queued session < window do
        incr fed;
        Cmproto.Session.send session size
      done)
  in
  Timer.start_periodic pump (Time.us 200);
  let t0 = Engine.now engine in
  let t_end = ref None in
  let guard = ref 0 in
  while !t_end = None && !guard < 4_000 do
    incr guard;
    Engine.run_for engine (Time.ms 10);
    if
      !fed >= n
      && Cmproto.Session.packets_sent session >= n
      && Cmproto.Session.unresolved_packets session = 0
    then t_end := Some (Engine.now engine)
  done;
  Timer.stop pump;
  let finish = match !t_end with Some t -> t | None -> Engine.now engine in
  (Time.to_float_us (Time.diff finish t0) /. float_of_int n, meter)

let run params =
  let n = 20_000 in
  let buffered_us, buffered_meter =
    Fig6.measure_variant params Fig6.Buffered ~size ~n
  in
  let cmproto_us, cmproto_meter = run_cmproto params ~n in
  [
    {
      design = "Buffered (application feedback)";
      us_per_packet = buffered_us;
      ops = Fig6.per_packet_ops buffered_meter ~n;
    };
    {
      design = "CM protocol (kernel feedback)";
      us_per_packet = cmproto_us;
      ops = Fig6.per_packet_ops cmproto_meter ~n;
    };
  ]

let print rows =
  Exp_common.print_header
    "Extension: CM protocol (kernel-to-kernel feedback) vs application feedback, 168 B packets";
  List.iter
    (fun r ->
      Exp_common.print_row (Printf.sprintf "%-36s %8.1f us/packet" r.design r.us_per_packet);
      List.iter
        (fun (name, per) -> Exp_common.print_row (Printf.sprintf "    %-16s %6.2f /pkt" name per))
        r.ops)
    rows;
  match rows with
  | [ app; proto ] ->
      Exp_common.print_row
        (Printf.sprintf
           "per-packet saving: %.1f us (%.0f%%); the sending app's only crossing is send()"
           (app.us_per_packet -. proto.us_per_packet)
           ((app.us_per_packet -. proto.us_per_packet) /. app.us_per_packet *. 100.))
  | _ -> ()
