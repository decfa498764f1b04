(* edge_flash_crowd: the cdn_edge spec (2 servers x 1024 clients, 2050
   nodes, 20 s virtual, flash crowd at t = 2 s).  The benchmark calls
   Check.elaborate, Build.instantiate and Launch.run itself, creating the
   servers' CMs the way Cdn_edge.run does.

   The traced run times Build.instantiate on a scratch engine and runs
   the simulation on a copy of its construction (same order, same
   parameters) whose link sinks and routes are the benchmark's closures;
   the traced outputs must equal the untraced ones, which shows the copy
   is exact. *)

open Cm_util
open Eventsim
open Netsim
open Common
module Spec = Cm_spec.Spec
module Check = Cm_spec.Check
module Build = Cm_spec.Build
module Launch = Cm_spec.Launch
module Cdn = Experiments.Cdn_edge

let servers = [ "s0"; "s1" ]

(* The family's shape at self-test size: 16 clients per server, 4 of
   them in the baseline cohort. *)
let tiny_spec =
  let n_per_server = 16 and n_baseline = 4 and object_bytes = 50 * 1024 in
  let all i = List.init n_per_server (fun j -> Spec.client_name ~server:i ~index:j ()) in
  let fetch = Spec.web_fetch ~object_bytes ~count:3 ~gap:(Time.ms 600) in
  let one_fetch = Spec.web_fetch ~object_bytes ~count:1 ~gap:(Time.ms 600) in
  Spec.(
    par
      [
        par (List.map node servers);
        clients ~n:n_per_server ~per:servers ~bw:4e6 ~lat:(Time.ms 5) ~queue:50 ~trunk_bw:100e6
          ~trunk_lat:(Time.ms 2) ~trunk_queue:200 ();
        par
          (List.mapi
             (fun i s ->
               par
                 [
                   flows ~name:("baseline-" ^ s)
                     ~src:(List.filteri (fun j _ -> j < n_baseline) (all i))
                     ~dst:s ~port:80 ~app:fetch ~stagger:(Time.ms 15) ();
                   flows ~name:("crowd-" ^ s)
                     ~src:(List.filteri (fun j _ -> j >= n_baseline) (all i))
                     ~dst:s ~port:80 ~app:one_fetch ~start:(Time.sec 2.) ~stagger:(Time.ms 1) ();
                 ])
             servers);
      ])

let spec = function Full -> Cdn.spec | Tiny -> tiny_spec

(* Build.instantiate's construction, with span-carrying sinks and routes. *)
let instantiate_traced tr ~rng engine (ir : Check.ir) =
  let impls =
    Array.map
      (fun (n : Check.node) ->
        match n.Check.n_kind with
        | Spec.Host -> Build.Host_impl (Host.create engine ~id:n.Check.n_addr ())
        | Spec.Router -> Build.Router_impl (Router.create ()))
      ir.Check.ir_nodes
  in
  let route l pkt =
    let s = Span.enter tr Span.Link_send in
    Link.send l pkt;
    Span.leave tr s
  in
  let links =
    Array.map
      (fun (e : Check.edge) ->
        let sink =
          match impls.(e.Check.e_dst) with
          | Build.Host_impl h ->
              fun pkt ->
                let s = Span.enter tr Span.Tcp_rx in
                Host.deliver h pkt;
                Span.leave tr s
          | Build.Router_impl r ->
              fun pkt ->
                let s = Span.enter tr Span.Deliver in
                Router.forward r pkt;
                Span.leave tr s
        in
        Link.create engine ~bandwidth_bps:e.Check.e_bw ~delay:e.Check.e_lat
          ~qdisc:(Queue_disc.droptail ~limit_pkts:e.Check.e_queue ())
          ~rng ~sink ())
      ir.Check.ir_edges
  in
  Array.iteri
    (fun i impl ->
      match (impl, ir.Check.ir_out.(i)) with
      | Build.Host_impl h, ei :: _ -> Host.attach_route h (route links.(ei))
      | Build.Host_impl _, [] | Build.Router_impl _, _ -> ())
    impls;
  Array.iteri
    (fun dst (n : Check.node) ->
      if n.Check.n_kind = Spec.Host then begin
        let dist = Check.dist_to ir ~dst in
        Array.iteri
          (fun u impl ->
            match impl with
            | Build.Router_impl r -> (
                match Check.next_hop ir dist u with
                | Some ei -> Router.add_route r ~dst:n.Check.n_addr (route links.(ei))
                | None -> ())
            | Build.Host_impl _ -> ())
          impls
      end)
    ir.Check.ir_nodes;
  { Build.engine; ir; impls; links }

(* TCP work seen on the wire at every host's output: data segments, pure
   ACKs, connections opened (distinct flows that sent a SYN without ACK)
   and retransmissions (data that ends at or below the flow's highest
   sequence already sent).  The hook is the benchmark's own callback, so
   it runs under an apps.cb span. *)
type wire = {
  mutable w_data : int;
  mutable w_acks : int;
  mutable w_rexmit : int;
  w_high : (Addr.flow, int) Hashtbl.t;
  w_opened : (Addr.flow, unit) Hashtbl.t;
}

let tap_wire tr w (b : Build.t) =
  Array.iter
    (function
      | Build.Host_impl h ->
          Host.add_tx_hook h (fun pkt ->
              let s = Span.enter tr Span.Apps_cb in
              (match pkt.Packet.payload with
              | Tcp.Segment.Tcp_seg sg ->
                  if sg.Tcp.Segment.syn && not sg.Tcp.Segment.ack then
                    Hashtbl.replace w.w_opened pkt.Packet.flow ();
                  if sg.Tcp.Segment.len > 0 then begin
                    w.w_data <- w.w_data + 1;
                    let fin = sg.Tcp.Segment.seq + sg.Tcp.Segment.len in
                    let flow = pkt.Packet.flow in
                    match Hashtbl.find_opt w.w_high flow with
                    | Some hi when fin <= hi -> w.w_rexmit <- w.w_rexmit + 1
                    | _ -> Hashtbl.replace w.w_high flow fin
                  end
                  else w.w_acks <- w.w_acks + 1
              | _ -> ());
              Span.leave tr s)
      | Build.Router_impl _ -> ())
    b.Build.impls

(* Cdn_edge's cohort summary of one flow group. *)
let cohort_of (r : Launch.running) : Cdn.cohort =
  let lats =
    Array.to_list r.Launch.outcomes
    |> List.concat_map (function
         | Launch.Fetched { fetches; _ } ->
             List.map (fun (x : Cm_apps.Web.fetch_result) -> Time.to_float_s x.Cm_apps.Web.duration) fetches
         | _ -> [])
  in
  let sorted = Array.of_list lats in
  Array.sort compare sorted;
  let n = Array.length sorted in
  {
    Cdn.c_name = r.Launch.rg.Check.g_name;
    c_clients = Array.length r.Launch.outcomes;
    c_done = Launch.done_count r;
    c_fetches = n;
    c_lat_mean_s = (if n = 0 then 0. else Array.fold_left ( +. ) 0. sorted /. float_of_int n);
    c_lat_p50_s = percentile sorted 0.5;
    c_lat_p95_s = percentile sorted 0.95;
    c_lat_max_s = (if n = 0 then 0. else sorted.(n - 1));
  }

let trunk_names = List.mapi (fun i s -> Printf.sprintf "%s->cr%d" s i) servers

let expected_fetches (ir : Check.ir) =
  Array.fold_left
    (fun acc (g : Check.group) ->
      match g.Check.g_app with
      | Spec.Web_fetch { count; _ } -> acc + (count * Array.length g.Check.g_srcs)
      | Spec.Bulk _ | Spec.Layered _ -> acc)
    0 ir.Check.ir_groups

let run size ~seed tr =
  let traced = Span.enabled tr in
  let ph = phases () in
  let wire =
    { w_data = 0; w_acks = 0; w_rexmit = 0; w_high = Hashtbl.create 4096; w_opened = Hashtbl.create 4096 }
  in
  let rto_traces = ref [] in
  let build_words = ref 0. in
  let engine, net, cms, running =
    setup ph (fun () ->
        let engine = Engine.create () in
        if traced then Engine.enable_prof engine;
        let rng = Rng.create ~seed in
        let ir =
          match spanned tr Span.Spec_elaborate (fun () -> Check.elaborate (spec size)) with
          | Ok ir -> ir
          | Error _ -> failwith "edge_flash_crowd: spec does not elaborate"
        in
        let a0 = Gc.allocated_bytes () in
        let built =
          spanned tr Span.Spec_build (fun () ->
              Build.instantiate ~rng (if traced then Engine.create () else engine) ir)
        in
        build_words := (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8);
        let net =
          if traced then begin
            let b = instantiate_traced tr ~rng engine ir in
            tap_wire tr wire b;
            b
          end
          else built
        in
        (* CMs live at the data senders: the edge servers *)
        let cms = Hashtbl.create 4 in
        let driver_for host =
          let s = Span.enter tr Span.Apps_cb in
          let id = Host.id host in
          let d =
            match Hashtbl.find_opt cms id with
            | Some cm -> Some (Tcp.Conn.Cm_driven cm)
            | None ->
                if List.exists (fun name -> Build.host net name == host) servers then begin
                  let cm = Cm.create engine () in
                  Cm.attach cm host;
                  (* tcp.timeouts counts the tcp.rto events of this
                     trace.  Recording every CM event happens inside the
                     program, so on this workload it is part of tcp.rx,
                     the residual and bench.tracing_overhead_pct. *)
                  if traced then begin
                    let t = Telemetry.Trace.create engine in
                    Cm.set_trace cm t;
                    rto_traces := t :: !rto_traces
                  end;
                  Hashtbl.replace cms id cm;
                  Some (Tcp.Conn.Cm_driven cm)
                end
                else None
          in
          Span.leave tr s;
          d
        in
        let running =
          spanned tr Span.Spec_launch (fun () -> Launch.run net ~driver_for ())
        in
        (engine, net, cms, running))
  in
  run ph (fun () -> spanned tr Span.Run_for (fun () -> Engine.run_for engine (Time.sec 20.)));
  let result =
    {
      Cdn.r_cohorts = List.map cohort_of running;
      r_trunks = List.map (fun n -> (n, Link.stats (Build.link net n))) trunk_names;
    }
  in
  let params = { Experiments.Exp_common.default_params with seed } in
  let cm_list =
    List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.fold (fun id cm acc -> (id, cm) :: acc) cms [])
  in
  let outputs =
    [
      ("edge.json", Experiments.Exp_common.Json.to_string (Cdn.to_json params result));
      ("edge.events", int_out (Engine.events_executed engine));
      ("edge.final_clock_ns", int_out (Engine.now engine));
    ]
    @ List.concat_map (fun (n, s) -> link_outputs ("edge." ^ n) s) result.Cdn.r_trunks
    @ List.concat_map
        (fun (id, cm) -> cm_outputs (Printf.sprintf "edge.cm%d" id) (Cm.counters cm))
        cm_list
  in
  let fetched = List.fold_left (fun a (c : Cdn.cohort) -> a + c.Cdn.c_fetches) 0 result.Cdn.r_cohorts in
  let rtos =
    List.fold_left
      (fun a t ->
        let n = ref 0 in
        Telemetry.Trace.iter t (fun e -> if e.Telemetry.Trace.name = "tcp.rto" then incr n);
        a + !n)
      0 !rto_traces
  in
  let counters =
    engine_counters [ engine ]
    @ link_counters (Array.to_list net.Build.links)
    @ [
        ("cm.grants", float_of_int (List.fold_left (fun a (_, c) -> a + (Cm.counters c).Cm.grants) 0 cm_list));
        ("cm.teardown_probes", float_of_int (List.fold_left (fun a (_, c) -> a + Cm.teardown_probes c) 0 cm_list));
        ("spec.build_mwords", !build_words /. 1e6);
        ("apps.fetches", float_of_int fetched);
      ]
    @
    if traced then
      [
        ("tcp.segments_out", float_of_int wire.w_data);
        ("tcp.acks_out", float_of_int wire.w_acks);
        ("tcp.connections", float_of_int (Hashtbl.length wire.w_opened));
        ("tcp.retransmits", float_of_int wire.w_rexmit);
        ("tcp.timeouts", float_of_int rtos);
      ]
    else []
  in
  let expected = expected_fetches net.Build.ir in
  rep ph ~units:expected ~completed:(min expected fetched) ~outputs ~counters

(* The program's own family at the same seed. *)
let cross_check size ~seed =
  match size with
  | Tiny -> []
  | Full ->
      let params = { Experiments.Exp_common.default_params with seed } in
      [ ("edge.json", Experiments.Exp_common.Json.to_string (Cdn.to_json params (Cdn.run params))) ]

let workload = { name = "edge_flash_crowd"; run; cross_check }
