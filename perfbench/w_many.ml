(* cm_many_flows: the scale family's closed loop at N = 4096 flows over
   128 macroflows, once under round-robin and once under weighted-stride,
   with the family's churn (every 16th flow closes and reopens half-way)
   and transient loss (every 50th update).  The benchmark drives
   Cm.open_flow / request / notify / update / close_flow itself, the way
   Scale.run_point does, with the same per-flow state and draw order. *)

open Cm_util
open Eventsim
open Netsim
open Common

let flows = function Full -> 4096 | Tiny -> 256

(* 96 rounds at N = 4096 is the bench's scale point (rounds scaled so every
   size runs ~790k events), which this workload continues. *)
let rounds = function Full -> 96 | Tiny -> 24

let flows_per_mf = 32
let mtu = 1448

type fstate = {
  mutable fs_fid : int;
  fs_rtt : Time.span;
  mutable fs_left : int;
  mutable fs_churned : bool;
  mutable fs_req_at : Time.t;
  mutable fs_update : unit -> unit;
}

let one ph tr ~seed ~sched ~flows ~rounds =
  let weighted = sched = Experiments.Scale.Stride in
  let engine, cm, st, lats, n_lats, done_flows =
    setup ph (fun () ->
        let engine = Engine.create () in
        if Span.enabled tr then Engine.enable_prof engine;
        let scheduler =
          if weighted then Cm.Scheduler.weighted else Cm.Scheduler.round_robin
        in
        let cm = Cm.create engine ~mtu ~scheduler () in
        let dests = max 1 (flows / flows_per_mf) in
        let rng = Rng.create ~seed in
        let nil_thunk () = () in
        let st =
          Array.init flows (fun _ ->
              {
                fs_fid = -1;
                fs_rtt = Time.add (Time.ms 2) (Time.us (Rng.int rng 500));
                fs_left = rounds;
                fs_churned = false;
                fs_req_at = Time.zero;
                fs_update = nil_thunk;
              })
        in
        let lats = Array.make (flows * rounds) 0. in
        let n_lats = ref 0 and done_flows = ref 0 in
        let key_of i ~gen =
          Addr.flow
            ~src:(Addr.endpoint ~host:0 ~port:(1000 + i + (gen * 1_000_000)))
            ~dst:(Addr.endpoint ~host:(1 + (i mod dests)) ~port:80)
            ~proto:Addr.Udp ()
        in
        let request f =
          f.fs_req_at <- Engine.now engine;
          let s = Span.enter tr Span.Cm_request in
          Cm.request cm f.fs_fid;
          Span.leave tr s
        in
        let rec open_one i ~gen =
          let f = st.(i) in
          let s = Span.enter tr Span.Cm_open in
          f.fs_fid <- Cm.open_flow cm (key_of i ~gen);
          Span.leave tr s;
          Cm.register_send cm f.fs_fid (on_grant f);
          if weighted then Cm.set_weight cm f.fs_fid (float_of_int (1 + (i mod 3)))
        and on_grant f _granted_fid =
          let s = Span.enter tr Span.Apps_cb in
          lats.(!n_lats) <- Time.to_float_us (Time.diff (Engine.now engine) f.fs_req_at);
          incr n_lats;
          let n = Span.enter tr Span.Cm_notify in
          Cm.notify cm f.fs_fid ~nbytes:mtu;
          Span.leave tr n;
          Engine.post engine f.fs_rtt f.fs_update;
          Span.leave tr s
        in
        for i = 0 to flows - 1 do
          let f = st.(i) in
          f.fs_update <-
            (fun () ->
              let s = Span.enter tr Span.Apps_cb in
              let lossy = f.fs_left mod 50 = 49 in
              let u = Span.enter tr Span.Cm_update in
              Cm.update cm f.fs_fid ~nsent:mtu
                ~nrecd:(if lossy then 0 else mtu)
                ~loss:(if lossy then Cm.Cm_types.Transient else Cm.Cm_types.No_loss)
                ~rtt:f.fs_rtt ();
              Span.leave tr u;
              f.fs_left <- f.fs_left - 1;
              if f.fs_left = 0 then incr done_flows
              else begin
                if (not f.fs_churned) && i mod 16 = 0 && f.fs_left = rounds / 2 then begin
                  f.fs_churned <- true;
                  let c = Span.enter tr Span.Cm_close in
                  Cm.close_flow cm f.fs_fid;
                  Span.leave tr c;
                  open_one i ~gen:1
                end;
                request f
              end;
              Span.leave tr s)
        done;
        for i = 0 to flows - 1 do
          open_one i ~gen:0
        done;
        for i = 0 to flows - 1 do
          request st.(i)
        done;
        (engine, cm, st, lats, n_lats, done_flows))
  in
  run ph (fun () ->
      let guard = ref 0 in
      while !done_flows < flows && !guard < 100_000 do
        incr guard;
        spanned tr Span.Run_for (fun () -> Engine.run_for engine (Time.ms 100))
      done;
      for i = 0 to flows - 1 do
        let c = Span.enter tr Span.Cm_close in
        Cm.close_flow cm st.(i).fs_fid;
        Span.leave tr c
      done);
  let audit = Cm.Audit.run cm in
  let c = Cm.counters cm in
  let lat = Array.sub lats 0 !n_lats in
  Array.sort compare lat;
  let name = Experiments.Scale.sched_name sched in
  let outputs =
    [
      (name ^ ".macroflows", int_out (List.length (Cm.audit_view cm).Cm.av_default_macroflows));
      (name ^ ".grants", int_out c.Cm.grants);
      (name ^ ".closes", int_out c.Cm.closes);
      (name ^ ".events", int_out (Engine.events_executed engine));
      (name ^ ".virtual_s", float_out (Time.to_float_s (Engine.now engine)));
      (name ^ ".grant_lat_p50_us", float_out (percentile lat 0.50));
      (name ^ ".grant_lat_p99_us", float_out (percentile lat 0.99));
      (name ^ ".teardown_probes", int_out (Cm.teardown_probes cm));
      (name ^ ".audit_violations", int_out (List.length audit.Cm.Audit.violations));
      (name ^ ".live_flows", int_out (Cm.live_flows cm));
    ]
    @ cm_outputs (name ^ ".cm") c
  in
  (* a unit is a grant; a dirty audit or a flow left open fails them all *)
  let clean = Cm.Audit.ok audit && Cm.live_flows cm = 0 in
  (outputs, (if clean then min !n_lats (flows * rounds) else 0), engine, cm)

let run size ~seed tr =
  let flows = flows size and rounds = rounds size in
  let ph = phases () in
  let legs =
    List.map
      (fun sched ->
        let run0 = ph.p_run in
        let outputs, completed, engine, cm = one ph tr ~seed ~sched ~flows ~rounds in
        (outputs, completed, engine, cm, ph.p_run -. run0))
      [ Experiments.Scale.Rr; Experiments.Scale.Stride ]
  in
  let sum g = List.fold_left (fun a l -> a + g l) 0 legs in
  let engines = List.map (fun (_, _, e, _, _) -> e) legs in
  let cms = List.map (fun (_, _, _, c, _) -> c) legs in
  let leg_s k = match List.nth legs k with _, _, _, _, s -> s in
  let counters =
    engine_counters engines
    @ [
        ("cm.grants", float_of_int (List.fold_left (fun a c -> a + (Cm.counters c).Cm.grants) 0 cms));
        ("cm.teardown_probes", float_of_int (List.fold_left (fun a c -> a + Cm.teardown_probes c) 0 cms));
        ("cm.rr.run_s", leg_s 0);
        ("cm.stride.run_s", leg_s 1);
      ]
  in
  rep ph
    ~units:(2 * flows * rounds)
    ~completed:(sum (fun (_, c, _, _, _) -> c))
    ~outputs:(List.concat_map (fun (o, _, _, _, _) -> o) legs)
    ~counters

(* The program's own scale points at the same seed, size and rounds. *)
let cross_check size ~seed =
  let params = { Experiments.Exp_common.default_params with seed } in
  List.concat_map
    (fun sched ->
      let p =
        Experiments.Scale.run_point ~rounds:(rounds size) params ~sched ~flows:(flows size)
      in
      let name = Experiments.Scale.sched_name sched in
      Experiments.Scale.
        [
          (name ^ ".macroflows", int_out p.p_macroflows);
          (name ^ ".grants", int_out p.p_grants);
          (name ^ ".closes", int_out p.p_closes);
          (name ^ ".events", int_out p.p_events);
          (name ^ ".virtual_s", float_out p.p_virtual_s);
          (name ^ ".grant_lat_p50_us", float_out p.p_lat_p50_us);
          (name ^ ".grant_lat_p99_us", float_out p.p_lat_p99_us);
          (name ^ ".teardown_probes", int_out p.p_teardown_probes);
        ])
    [ Experiments.Scale.Rr; Experiments.Scale.Stride ]

let workload = { name = "cm_many_flows"; run; cross_check }
