open Cm_util
open Eventsim
open Netsim
module Spec = Cm_spec.Spec
module Check = Cm_spec.Check
module Build = Cm_spec.Build
module Launch = Cm_spec.Launch
module Scenario = Cm_dynamics.Scenario

(* Cellular last mile: a server streams the layered app to one UE behind
   a base station whose downlink ramps, flaps (a handoff) and recovers —
   the scenario shape the in-network-adaptation comparison needs.  The
   whole topology, schedule and flow group are spec DSL; phases compose
   with [seq]. *)

let layers = [| 0.5e6; 1e6; 2e6; 4e6 |]
let duration = Time.sec 30.

let phases =
  Spec.(
    seq
      [
        ("steady", Time.sec 8., []);
        ( "degrade",
          Time.sec 8.,
          faults ~target:"cell.down"
            [ (Time.zero, Scenario.Ramp_bandwidth { to_bps = 1.5e6; over = Time.sec 4.; steps = 8 }) ]
        );
        ( "handoff",
          Time.sec 6.,
          faults ~target:"cell.down"
            [ (Time.sec 1., Scenario.Flap { down = Time.ms 300; up = Time.ms 1200; cycles = 3 }) ]
        );
        ( "recover",
          Time.sec 8.,
          faults ~target:"cell.down"
            [ (Time.sec 1., Scenario.Ramp_bandwidth { to_bps = 8e6; over = Time.sec 3.; steps = 6 }) ]
        );
      ])

let spec =
  Spec.(
    par
      [
        node "srv";
        router "bs";
        node "ue";
        duplex ~name:"backhaul" ~rev_name:"backhaul.up" ~bw:50e6 ~lat:(Time.ms 10) "srv" "bs";
        link ~name:"cell.down" ~queue:64 ~bw:8e6 ~lat:(Time.ms 30) "bs" "ue";
        link ~name:"cell.up" ~queue:64 ~bw:2e6 ~lat:(Time.ms 30) "ue" "bs";
        flows ~name:"stream" ~src:[ "srv" ] ~dst:"ue" ~port:5004
          ~app:(layered ~packet_bytes:1000 ~layers ())
          ~stop:duration ();
        phases;
      ])

type result = {
  r_bytes : int;
  r_packets : int;
  r_goodput_bps : float;
  r_layer_switches : int;
  r_final_layer : int;
  r_layer_occupancy : float array;  (** Fraction of samples spent at each layer rate. *)
  r_down_stats : Link.stats;
}

let run params =
  Exp_common.with_system params @@ fun sys ->
  let engine = sys.engine and rng = sys.rng in
  let ir = Check.elaborate_exn spec in
  let net = Build.instantiate ~rng engine ir in
  let srv = Build.host net "srv" in
  let cm = Exp_common.create_cm sys ~host:srv ~mtu:1000 () in
  Exp_common.observe sys ~links:[ ("cell.down", Build.link net "cell.down") ] ~cm ();
  let lib = Libcm.create srv cm () in
  let running = Launch.run net ~driver_for:(fun _ -> None) ~libcm_for:(fun _ -> lib) () in
  let sc = Build.scenario ~name:"cellular" ir in
  Cm_dynamics.Scenario.compile engine ~rng ~links:(Build.links_alist net) sc;
  Engine.run_for engine duration;
  let source =
    match (Launch.find running "stream").Launch.outcomes.(0) with
    | Launch.Streaming s -> s
    | _ -> assert false
  in
  let points = Timeline.points (Cm_apps.Layered.layer_timeline source) in
  let switches = Timeline.changes (Cm_apps.Layered.layer_timeline source) in
  let occupancy = Array.make (Array.length layers) 0 in
  List.iter
    (fun (p : Timeline.point) ->
      Array.iteri (fun i r -> if p.Timeline.value = r then occupancy.(i) <- occupancy.(i) + 1) layers)
    points;
  let samples = List.length points in
  let bytes = Cm_apps.Layered.bytes_sent source in
  {
    r_bytes = bytes;
    r_packets = Cm_apps.Layered.packets_sent source;
    r_goodput_bps = float_of_int (bytes * 8) /. Time.to_float_s duration;
    r_layer_switches = switches;
    r_final_layer = Cm_apps.Layered.current_layer source;
    r_layer_occupancy =
      Array.map
        (fun n -> if samples = 0 then 0. else float_of_int n /. float_of_int samples)
        occupancy;
    r_down_stats = Link.stats (Build.link net "cell.down");
  }

let to_json params r =
  let open Exp_common.Json in
  Obj
    [
      ("seed", Int params.Exp_common.seed);
      ("layers_bps", List (Array.to_list (Array.map (fun l -> Float l) layers)));
      ("duration_s", Float (Time.to_float_s duration));
      ("bytes_sent", Int r.r_bytes);
      ("packets_sent", Int r.r_packets);
      ("goodput_kbps", Float (Exp_common.kbps r.r_goodput_bps));
      ("layer_switches", Int r.r_layer_switches);
      ("final_layer", Int r.r_final_layer);
      ("layer_occupancy", List (Array.to_list (Array.map (fun f -> Float f) r.r_layer_occupancy)));
      ( "cell_down",
        Obj
          [
            ("delivered_pkts", Int r.r_down_stats.Link.delivered_pkts);
            ("queue_drops", Int r.r_down_stats.Link.queue_drops);
            ("down_drops", Int r.r_down_stats.Link.down_drops);
          ] );
    ]

let print params r =
  Exp_common.print_header
    "Cellular last mile: layered stream vs. ramps and handoff flaps, spec-DSL authored (JSON)";
  Exp_common.print_row (Exp_common.Json.to_string (to_json params r))
