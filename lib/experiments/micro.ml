open Cm_util
open Eventsim
open Netsim

type result = { linux_setup_us : float; cm_setup_us : float; cm_open_close_ns : float }

let setup_time params ~use_cm =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine in
  let net =
    Topology.pipe engine ~bandwidth_bps:100e6 ~delay:(Time.us 100) ~rng:sys.rng
      ~costs:Costs.pentium3 ()
  in
  let cm = if use_cm then Some (Exp_common.create_cm sys ~host:net.Topology.a ()) else None in
  Exp_common.observe sys ~links:(Exp_common.pipe_links net) ?cm ();
  let driver = match cm with Some cm -> Tcp.Conn.Cm_driven cm | None -> Tcp.Conn.Native in
  let _l = Tcp.Conn.listen net.Topology.b ~port:80 ~on_accept:(fun _ -> ()) () in
  let established_at = ref None in
  let t0 = Engine.now engine in
  let conn = Tcp.Conn.connect net.Topology.a ~dst:(Addr.endpoint ~host:1 ~port:80) ~driver () in
  Tcp.Conn.on_established conn (fun () -> established_at := Some (Engine.now engine));
  Engine.run_for engine (Time.ms 100);
  match !established_at with
  | Some t -> Time.to_float_us (Time.diff t t0)
  | None -> failwith "micro: connection did not establish"

let open_close_cost () =
  (* real wall-clock cost of the CM's own bookkeeping *)
  let engine = Engine.create () in
  let cm = Cm.create engine () in
  let n = 10_000 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let key =
      Addr.flow
        ~src:(Addr.endpoint ~host:0 ~port:(1000 + (i mod 30_000)))
        ~dst:(Addr.endpoint ~host:1 ~port:80)
        ~proto:Addr.Tcp ()
    in
    let fid = Cm.open_flow cm key in
    Cm.close_flow cm fid
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n

let run params =
  {
    linux_setup_us = setup_time params ~use_cm:false;
    cm_setup_us = setup_time params ~use_cm:true;
    cm_open_close_ns = open_close_cost ();
  }

let print r =
  Exp_common.print_header "Microbenchmark (§4.1): connection establishment";
  Exp_common.print_row
    (Printf.sprintf "TCP/Linux connect -> established: %10.1f us" r.linux_setup_us);
  Exp_common.print_row
    (Printf.sprintf "TCP/CM    connect -> established: %10.1f us" r.cm_setup_us);
  (* wall clock differs run to run: stderr, so stdout stays seeded *)
  prerr_endline
    (Printf.sprintf "cm_open + cm_close bookkeeping:   %10.0f ns (host wall clock)"
       r.cm_open_close_ns)
