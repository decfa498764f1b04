open Cm_util
open Eventsim
open Netsim

type row = { request : int; linux_ms : float; cm_ms : float }

let run_side params ~use_cm ~count ~file_bytes =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine in
  (* wide-area path: ~10 Mbps available, 75 ms RTT like the MIT-Utah vBNS
     path of the paper *)
  let net =
    Topology.pipe engine ~bandwidth_bps:10e6 ~delay:(Time.us 37_500) ~qdisc_limit:100
      ~rng:sys.rng ()
  in
  (* the SERVER is the data sender: the CM (when enabled) lives on host b *)
  let cm = if use_cm then Some (Exp_common.create_cm sys ~host:net.Topology.b ()) else None in
  Exp_common.observe sys ~links:[ ("ba", net.Topology.ba); ("ab", net.Topology.ab) ] ?cm ();
  let server_driver =
    match cm with Some cm -> Tcp.Conn.Cm_driven cm | None -> Tcp.Conn.Native
  in
  let _server =
    Cm_apps.Web.server net.Topology.b ~port:80 ~file_bytes ~driver:server_driver ()
  in
  let results = ref [] in
  Cm_apps.Web.sequential_fetches net.Topology.a
    ~dst:(Addr.endpoint ~host:1 ~port:80)
    ~expect_bytes:file_bytes ~count ~gap:(Time.ms 500)
    ~on_done:(fun rs -> results := rs)
    ();
  Engine.run_for engine (Time.sec (float_of_int count *. 2.) );
  match !results with
  | [] -> failwith "fig7: fetches did not complete"
  | rs -> List.map (fun r -> Time.to_float_ms r.Cm_apps.Web.duration) rs

let run ?(count = 9) ?(file_bytes = 128 * 1024) params =
  let linux = run_side params ~use_cm:false ~count ~file_bytes in
  let cm = run_side params ~use_cm:true ~count ~file_bytes in
  List.mapi (fun i (l, c) -> { request = i + 1; linux_ms = l; cm_ms = c })
    (List.combine linux cm)

let print rows =
  Exp_common.print_header
    "Figure 7: sequential 128KB fetches, 500 ms apart (completion time, ms)";
  Exp_common.print_row (Printf.sprintf "%-10s %14s %14s" "request#" "TCP/Linux" "TCP/CM");
  List.iter
    (fun r ->
      Exp_common.print_row (Printf.sprintf "%-10d %14.1f %14.1f" r.request r.linux_ms r.cm_ms))
    rows
