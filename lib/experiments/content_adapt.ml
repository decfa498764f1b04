open Cm_util
open Eventsim
open Netsim

type fetch = { latency_ms : float; bytes : int }
type row = { bandwidth_mbps : float; fixed : fetch list; adaptive : fetch list }

let encodings = [| 16 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024 |]
let full_quality = 256 * 1024
let target_latency = Time.sec 1.
let requests = 5

let run_side params ~adaptive ~bandwidth_bps =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine in
  let net = Topology.pipe engine ~bandwidth_bps ~delay:(Time.ms 40) ~rng:sys.rng () in
  let cm = Exp_common.create_cm sys ~host:net.Topology.b () in
  Exp_common.observe sys ~links:(Exp_common.pipe_links net) ~cm ();
  let driver = Tcp.Conn.Cm_driven cm in
  let _server =
    if adaptive then
      Cm_apps.Web.adaptive_server net.Topology.b ~cm ~port:80 ~encodings ~target_latency
        ~driver ()
    else Cm_apps.Web.server net.Topology.b ~port:80 ~file_bytes:full_quality ~driver ()
  in
  (* the client accepts whatever size the server chose: fetch until the
     connection delivers its FIN-terminated response *)
  let results = ref [] in
  let remaining = ref requests in
  let rec one () =
    let t0 = Engine.now engine in
    let conn = Tcp.Conn.connect net.Topology.a ~dst:(Addr.endpoint ~host:1 ~port:80) () in
    let received = ref 0 in
    Tcp.Conn.on_established conn (fun () -> Tcp.Conn.send conn 100);
    Tcp.Conn.on_receive conn (fun n -> received := !received + n);
    (* the server closes after the object; completion = our side seeing the
       whole response (close_wait) *)
    let poll = ref None in
    let check () =
      if Tcp.Conn.state conn = Tcp.Conn.Close_wait then begin
        (match !poll with Some t -> Timer.stop t | None -> ());
        Tcp.Conn.close conn;
        results :=
          { latency_ms = Time.to_float_ms (Time.diff (Engine.now engine) t0); bytes = !received }
          :: !results;
        decr remaining;
        if !remaining > 0 then
          ignore (Engine.schedule_after engine (Time.ms 500) one)
      end
    in
    let timer = Timer.create engine ~callback:check in
    poll := Some timer;
    Timer.start_periodic timer (Time.ms 5)
  in
  one ();
  Engine.run_for engine (Time.sec 120.);
  List.rev !results

let bandwidths = [ 8e6; 2e6; 0.5e6 ]

let run params =
  List.map
    (fun bw ->
      {
        bandwidth_mbps = bw /. 1e6;
        fixed = run_side params ~adaptive:false ~bandwidth_bps:bw;
        adaptive = run_side params ~adaptive:true ~bandwidth_bps:bw;
      })
    bandwidths

let print rows =
  Exp_common.print_header
    "Content adaptation: fixed 256 KB object vs cm_query-chosen encoding (1 s latency target)";
  List.iter
    (fun r ->
      Exp_common.print_row (Printf.sprintf "path %.1f Mbit/s:" r.bandwidth_mbps);
      let fmt fs =
        fs
        |> List.map (fun f -> Printf.sprintf "%4.0fms/%3dKB" f.latency_ms (f.bytes / 1024))
        |> String.concat "  "
      in
      Exp_common.print_row (Printf.sprintf "  fixed    %s" (fmt r.fixed));
      Exp_common.print_row (Printf.sprintf "  adaptive %s" (fmt r.adaptive)))
    rows;
  Exp_common.print_row "";
  Exp_common.print_row
    "(the adaptive server serves the small encoding while it has no estimate, then";
  Exp_common.print_row
    " the largest encoding the learned macroflow rate can deliver within 1 s)"
