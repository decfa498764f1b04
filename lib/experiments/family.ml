(* The experiment-family registry: one record per family, in the order
   [cm_expt all] and the bench run them.  Every consumer (the cm_expt
   subcommands, [all], [spec], [trace], [report], the bench) iterates this
   list, so adding a family is adding one entry here. *)

open Exp_common

type t = {
  name : string;
  doc : string;
  run : params -> unit;
  specs : (string * Cm_spec.Spec.t) list;
  sub_runs : (string * (params -> unit)) list;
}

let family ?(specs = []) ?(sub_runs = []) name doc run = { name; doc; run; specs; sub_runs }

(* Figs. 4 and 5 come from one run; both names share this closure *)
let fig4_5 p = Fig4_5.print (Fig4_5.run p)

(* Instrumented sub-runs are deliberately smaller than the figure runs:
   their artifacts are for inspection (Perfetto, spreadsheets, the health
   report), not for the paper's numbers. *)
let scenario_run scenario app p = ignore (Scenarios.run_one p ~scenario ~app)

let all =
  [
    family "fig3" "Throughput vs loss: TCP/CM vs TCP/Linux" (fun p -> Fig3.print (Fig3.run p));
    family "fig4" "100 Mbps throughput vs buffers transmitted (also prints Fig. 5)" fig4_5;
    family "fig5" "Sender CPU utilization vs buffers transmitted (also prints Fig. 4)" fig4_5;
    family "fig6" "Per-packet API overhead vs packet size"
      (fun p -> Fig6.print (Fig6.run p))
      ~sub_runs:
        [ ("fig6", fun p -> ignore (Fig6.measure_macro p Fig6.Tcp_cm ~size:1448 ~n:2_000)) ];
    family "table1" "Boundary crossings per packet per API" (fun p ->
        Fig6.print_table1 (Fig6.run_table1 p));
    family "fig7" "Sequential fetches: congestion-state sharing"
      (fun p -> Fig7.print (Fig7.run p))
      ~sub_runs:
        [
          ( "fig7",
            fun p -> ignore (Fig7.run_side p ~use_cm:true ~count:3 ~file_bytes:(64 * 1024)) );
        ];
    family "fig8" "ALF layered streaming over a varying path"
      (fun p -> Fig8_10.print (Fig8_10.run_fig8 p))
      ~sub_runs:[ ("fig8", fun p -> ignore (Fig8_10.run_fig8 p)) ];
    family "fig9" "Rate-callback layered streaming"
      (fun p -> Fig8_10.print (Fig8_10.run_fig9 p))
      ~sub_runs:[ ("fig9", fun p -> ignore (Fig8_10.run_fig9 p)) ];
    family "fig10" "Rate callback with delayed feedback" (fun p ->
        Fig8_10.print (Fig8_10.run_fig10 p));
    family "micro" "Connection-establishment microbenchmark" (fun p -> Micro.print (Micro.run p));
    family "ablation_sched" "Round-robin vs weighted scheduler" (fun p ->
        Ablations.print_scheduler (Ablations.run_scheduler p));
    family "ablation_ctrl" "AIMD vs binomial controllers" (fun p ->
        Ablations.print_controller (Ablations.run_controller p));
    family "ablation_share" "Independent vs shared congestion state" (fun p ->
        Ablations.print_sharing (Ablations.run_sharing p));
    family "phttp" "Sec. 6: P-HTTP multiplexing vs CM concurrent connections" (fun p ->
        Sec6_phttp.print (Sec6_phttp.run p));
    family "cmproto" "Extension: CM protocol (kernel feedback) vs app feedback" (fun p ->
        Ext_cmproto.print (Ext_cmproto.run p));
    family "content" "Content adaptation: fixed vs cm_query-chosen encodings" (fun p ->
        Content_adapt.print (Content_adapt.run p));
    family "merge" "Extension: merged macroflows behind a shared bottleneck" (fun p ->
        Ext_merge.print (Ext_merge.run p));
    family "ablation_fairness" "Jain fairness across flow ensembles" (fun p ->
        Ablations.print_fairness (Ablations.run_fairness p));
    family "scenarios" "Fault-injection scenarios: burst loss, outage, sawtooth (JSON)"
      (fun p -> Scenarios.print p (Scenarios.run p))
      ~specs:
        (List.map
           (fun id -> (Scenarios.scenario_name id, Scenarios.spec_of id))
           [ Scenarios.Burst_loss; Scenarios.Outage; Scenarios.Sawtooth ])
      ~sub_runs:
        [
          ("scenario_burst", scenario_run Scenarios.Burst_loss Scenarios.Tcp_cm_bulk);
          ("scenario_outage", scenario_run Scenarios.Outage Scenarios.Tcp_cm_bulk);
          ("scenario_sawtooth", scenario_run Scenarios.Sawtooth Scenarios.Layered_stream);
        ];
    (* the storm case exercises the defenses end to end; the baseline case
       would report all-pass, which is less interesting to read *)
    family "app_faults" "Endpoint faults: crash/silence/lie/hoard defenses & reclamation (JSON)"
      (fun p -> App_faults.print p (App_faults.run p))
      ~sub_runs:[ ("app_faults_storm", fun p -> ignore (App_faults.run_case p App_faults.Storm)) ];
    family "fattree" "Fat-tree k=4 incast + cross-pod shuffle, spec-DSL authored (JSON)"
      (fun p -> Fattree.print p (Fattree.run p))
      ~specs:[ ("fattree", Fattree.spec) ];
    family "cdn_edge" "CDN edge flash crowd: 2x1024 clients, spec-DSL authored (JSON)"
      (fun p -> Cdn_edge.print p (Cdn_edge.run p))
      ~specs:[ ("cdn_edge", Cdn_edge.spec) ];
    family "cellular"
      "Cellular last mile: layered app vs ramps and handoff flaps, spec-DSL authored (JSON)"
      (fun p -> Cellular.print p (Cellular.run p))
      ~specs:[ ("cellular", Cellular.spec) ];
    (* the blackout case drives every defense counter; the baseline would
       report all-pass *)
    family "feedback_faults"
      "Feedback-plane faults: blackout, degraded control plane, receiver restart (JSON)"
      (fun p -> Feedback_faults.print p (Feedback_faults.run p))
      ~sub_runs:
        [
          ( "feedback_faults_blackout",
            fun p -> ignore (Feedback_faults.run_case p Feedback_faults.Blackout) );
        ];
  ]

let find name = List.find_opt (fun f -> f.name = name) all

let distinct =
  List.rev
    (List.fold_left
       (fun seen f -> if List.exists (fun g -> g.run == f.run) seen then seen else f :: seen)
       [] all)

let sub_runs = List.concat_map (fun f -> f.sub_runs) all
