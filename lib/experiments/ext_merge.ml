open Cm_util
open Eventsim
open Netsim

type row = {
  setup : string;
  pair_bytes : int;
  reference_bytes : int;
  pair_to_reference : float;
}

let run_side params ~merged =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine in
  (* hosts 1, 2 and 3 all live behind the same 6 Mbit/s bottleneck from
     the sender's point of view (sender is the star's "server" side) *)
  let net =
    Topology.star engine ~n_clients:3 ~access_bps:1e8 ~access_delay:(Time.ms 1)
      ~bottleneck_bps:6e6 ~bottleneck_delay:(Time.ms 20) ~qdisc_limit:50 ~rng:sys.rng ()
  in
  let sender = net.Topology.server in
  let cm = Exp_common.create_cm sys ~host:sender ~mtu:1000 () in
  Exp_common.observe sys
    ~links:[ ("from_server", net.Topology.from_server); ("to_server", net.Topology.to_server) ]
    ~cm ();
  (* two CC-UDP flows to two different destination hosts *)
  let _r1 = Udp.Cc_socket.run_echo_receiver net.Topology.clients.(0) ~port:7001 () in
  let _r2 = Udp.Cc_socket.run_echo_receiver net.Topology.clients.(1) ~port:7001 () in
  let sock_a = Udp.Cc_socket.create sender ~cm ~dst:(Addr.endpoint ~host:1 ~port:7001) () in
  let sock_b = Udp.Cc_socket.create sender ~cm ~dst:(Addr.endpoint ~host:2 ~port:7001) () in
  (* by default these are separate per-destination macroflows; with
     bottleneck knowledge supplied, merge them into one *)
  if merged then Cm.merge cm (Udp.Cc_socket.flow sock_a) ~into:(Udp.Cc_socket.flow sock_b);
  (* the reference: a native TCP to the third destination *)
  let reference_bytes = ref 0 in
  let _l =
    Tcp.Conn.listen net.Topology.clients.(2) ~port:80
      ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> reference_bytes := !reference_bytes + n))
      ()
  in
  let reference = Tcp.Conn.connect sender ~dst:(Addr.endpoint ~host:3 ~port:80) () in
  Tcp.Conn.send reference (1 lsl 28);
  let feeder =
    Timer.create engine ~callback:(fun () ->
        List.iter
          (fun s ->
            let room = 64 - Udp.Cc_socket.queued s in
            for _ = 1 to room do
              Udp.Cc_socket.send s 1000
            done)
          [ sock_a; sock_b ])
  in
  Timer.start_periodic feeder (Time.ms 20);
  Engine.run_for engine (Time.sec 20.);
  Timer.stop feeder;
  let pair = Udp.Cc_socket.bytes_sent sock_a + Udp.Cc_socket.bytes_sent sock_b in
  {
    setup = (if merged then "merged macroflow (bottleneck known)" else "separate per-destination");
    pair_bytes = pair;
    reference_bytes = !reference_bytes;
    pair_to_reference = float_of_int pair /. float_of_int (Stdlib.max 1 !reference_bytes);
  }

let run params = [ run_side params ~merged:false; run_side params ~merged:true ]

let print rows =
  Exp_common.print_header
    "Extension (sec. 5): merging macroflows across destinations behind one bottleneck";
  Exp_common.print_row
    (Printf.sprintf "%-36s %12s %14s %10s" "setup" "pair bytes" "reference TCP" "pair/ref");
  List.iter
    (fun r ->
      Exp_common.print_row
        (Printf.sprintf "%-36s %12d %14d %10.2f" r.setup r.pair_bytes r.reference_bytes
           r.pair_to_reference))
    rows;
  Exp_common.print_row
    "(two independent macroflows probe the shared bottleneck like two TCPs; merged,";
  Exp_common.print_row " the pair takes roughly one TCP's share)"
