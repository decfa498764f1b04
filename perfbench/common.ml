(* What every workload shares: the result of one repetition, the phase
   timers, and the formatting of checked outputs. *)

type size =
  | Full  (** the size the benchmark measures *)
  | Tiny  (** a seconds-long size for the self-tests *)

type gc = { minor_words : float; promoted_words : float; minor_gcs : int; major_gcs : int }

let gc_zero = { minor_words = 0.; promoted_words = 0.; minor_gcs = 0; major_gcs = 0 }

type rep = {
  setup_s : float;  (** host seconds before the first event *)
  run_s : float;  (** host seconds of the simulation phase *)
  gc : gc;  (** GC work during the simulation phase *)
  units : int;  (** work units attempted *)
  completed : int;  (** work units completed *)
  outputs : (string * string) list;
      (** simulated outputs, compared against the reference, the program's
          own family and the other repetitions *)
  counters : (string * float) list;  (** per-layer counts (name, value) *)
}

type workload = {
  name : string;
  run : size -> seed:int -> Span.t -> rep;
  cross_check : size -> seed:int -> (string * string) list;
      (** the same outputs as produced by the program's own family, keyed
          like [rep.outputs]; [[]] where there is none at this size *)
}

(* Nearest-rank percentile of a sorted array: the value below which a
   share [q] of it lies. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Phase accumulator: set-up and run time, and GC work during runs. *)
type phases = { mutable p_setup : float; mutable p_run : float; mutable p_gc : gc }

let phases () = { p_setup = 0.; p_run = 0.; p_gc = gc_zero }

let setup ph f =
  let t0 = now_s () in
  let r = f () in
  ph.p_setup <- ph.p_setup +. (now_s () -. t0);
  r

let run ph f =
  let g0 = Gc.quick_stat () in
  let t0 = now_s () in
  let r = f () in
  let t1 = now_s () in
  let g1 = Gc.quick_stat () in
  let g = ph.p_gc in
  ph.p_run <- ph.p_run +. (t1 -. t0);
  ph.p_gc <-
    {
      minor_words = g.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      promoted_words = g.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
      minor_gcs = g.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
      major_gcs = g.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
    };
  r

let rep ph ~units ~completed ~outputs ~counters =
  {
    setup_s = ph.p_setup;
    run_s = ph.p_run;
    gc = ph.p_gc;
    units;
    completed;
    outputs;
    counters;
  }

(* Run [f] under a span of kind [k]. *)
let[@inline] spanned tr k f =
  let s = Span.enter tr k in
  let r = f () in
  Span.leave tr s;
  r

(* Output values: exact renderings, so any change in a simulated result
   shows as a mismatch. *)
let int_out = string_of_int
let float_out x = Printf.sprintf "%.17g" x

let link_outputs prefix (s : Netsim.Link.stats) =
  let open Netsim.Link in
  [
    (prefix ^ ".enqueued_pkts", int_out s.enqueued_pkts);
    (prefix ^ ".delivered_pkts", int_out s.delivered_pkts);
    (prefix ^ ".delivered_bytes", int_out s.delivered_bytes);
    (prefix ^ ".queue_drops", int_out s.queue_drops);
    (prefix ^ ".channel_drops", int_out s.channel_drops);
    (prefix ^ ".down_drops", int_out s.down_drops);
    (prefix ^ ".ecn_marks", int_out s.ecn_marks);
  ]

let cm_outputs prefix (c : Cm.counters) =
  [
    (prefix ^ ".opens", int_out c.Cm.opens);
    (prefix ^ ".closes", int_out c.Cm.closes);
    (prefix ^ ".requests", int_out c.Cm.requests);
    (prefix ^ ".grants", int_out c.Cm.grants);
    (prefix ^ ".updates", int_out c.Cm.updates);
    (prefix ^ ".notifies", int_out c.Cm.notifies);
    (prefix ^ ".declined_grants", int_out c.Cm.declined_grants);
  ]

let tcp_outputs prefix (s : Tcp.Conn.stats) =
  let open Tcp.Conn in
  [
    (prefix ^ ".bytes_sent", int_out s.bytes_sent);
    (prefix ^ ".bytes_acked", int_out s.bytes_acked);
    (prefix ^ ".bytes_delivered", int_out s.bytes_delivered);
    (prefix ^ ".segments_out", int_out s.segments_out);
    (prefix ^ ".acks_out", int_out s.acks_out);
    (prefix ^ ".retransmits", int_out s.retransmits);
    (prefix ^ ".fast_retransmits", int_out s.fast_retransmits);
    (prefix ^ ".timeouts", int_out s.timeouts);
    (prefix ^ ".rtt_samples", int_out s.rtt_samples);
  ]

(* Event-core counters of the engines a repetition ran. *)
let engine_counters engines =
  let open Eventsim in
  let sum f = float_of_int (List.fold_left (fun a e -> a + f e) 0 engines) in
  let hi f = float_of_int (List.fold_left (fun a e -> max a (f e)) 0 engines) in
  let q f e = f (Engine.queue_stats e) in
  let dispatch cat e =
    match Engine.prof_report e with
    | None -> 0
    | Some r -> (
        match
          List.find_opt (fun c -> c.Engine.pc_name = cat) r.Engine.pr_categories
        with
        | Some c -> c.Engine.pc_dispatches
        | None -> 0)
  in
  [
    ("eventsim.events", sum Engine.events_executed);
    ("eventsim.queue_hw", hi (q (fun s -> s.Cm_util.Wheel.hw_size)));
    ("eventsim.overflow_inserts", sum (q (fun s -> s.Cm_util.Wheel.overflow_inserts)));
    ("eventsim.overflow_migrations", sum (q (fun s -> s.Cm_util.Wheel.overflow_migrations)));
    ("eventsim.pool_hw", hi Engine.pool_hw);
  ]
  @ List.map
      (fun cat -> ("eventsim.dispatch." ^ cat, sum (dispatch cat)))
      [ "timer"; "net"; "cm"; "other" ]

let link_counters links =
  let sum f = float_of_int (List.fold_left (fun a l -> a + f (Netsim.Link.stats l)) 0 links) in
  let open Netsim.Link in
  [
    ("netsim.delivered_pkts", sum (fun s -> s.delivered_pkts));
    ("netsim.queue_drops", sum (fun s -> s.queue_drops));
    ("netsim.channel_drops", sum (fun s -> s.channel_drops));
  ]

(* Metric-name form of a Table 1 operation: "ioctl(request)" becomes
   "ioctl_request". *)
let op_key k =
  String.to_seq k
  |> Seq.filter_map (function '(' -> Some '_' | ')' -> None | c -> Some c)
  |> String.of_seq
