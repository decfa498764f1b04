open Cm_util
open Eventsim
open Netsim

type telemetry_request = { period : Time.span; mutable captured : Telemetry.t list }

type params = {
  seed : int;
  full : bool;
  telemetry : telemetry_request option;
  defenses : bool;
  prof : bool;
  recorder : string option;
}

let default_params =
  { seed = 42; full = false; telemetry = None; defenses = false; prof = false; recorder = None }

let request_telemetry ?(period = Time.ms 100) () = { period; captured = [] }

(* Every experiment builds its engine through here so the event-core
   profiler can be armed before any component closure exists —
   [Engine.prof_tag] is identity on an unprofiled engine, so tagging must
   happen after [enable_prof]. *)
let create_engine params () =
  let engine = Engine.create () in
  if params.prof then Engine.enable_prof engine;
  engine

(* The telemetry half of [observe]: builds the telemetry instance (when
   the run asked for one), wires the interesting components, and captures
   it so the trace driver can export artifacts after the run.  Runs that
   were not asked to trace pay nothing — this returns [None] and every
   component keeps its nil sink. *)
let instrument params ~engine ?(links = []) ?cm () =
  match params.telemetry with
  | None -> None
  | Some req ->
      let tel = Telemetry.create engine ~period:req.period () in
      req.captured <- tel :: req.captured;
      List.iter (fun (name, link) -> Link.attach_telemetry link ~name tel) links;
      (match cm with Some c -> Cm.attach_telemetry c tel | None -> ());
      Some tel

type system = {
  params : params;
  engine : Engine.t;
  rng : Rng.t;
  mutable telemetry : Telemetry.t option;
  mutable recorder : Telemetry.Recorder.t option;
}

(* The one lifecycle of a simulated system: engine (profiler armed first)
   and seeded RNG in, sampler stopped and profile printed out — to stderr,
   where wall-clock figures cannot contaminate the seeded stdout. *)
let with_system params body =
  let sys =
    {
      params;
      engine = create_engine params ();
      rng = Rng.create ~seed:params.seed;
      telemetry = None;
      recorder = None;
    }
  in
  Fun.protect
    (fun () -> body sys)
    ~finally:(fun () ->
      Option.iter Telemetry.stop sys.telemetry;
      if params.prof then prerr_endline (Telemetry.Prof.summary sys.engine))

(* Full telemetry when the run asked to trace; otherwise the bounded
   flight ring when it asked for a recorder — the growable telemetry
   trace already keeps everything the ring would. *)
let observe sys ?(tag = "recorder") ~links ?cm () =
  match instrument sys.params ~engine:sys.engine ~links ?cm () with
  | Some _ as tel -> sys.telemetry <- tel
  | None -> (
      match sys.params.recorder with
      | None -> ()
      | Some dir ->
          let rec_ = Telemetry.Recorder.create sys.engine ~out_dir:dir ~tag () in
          let tr = Telemetry.Recorder.trace rec_ in
          List.iter (fun (name, link) -> Link.set_trace link ~name tr) links;
          Option.iter (fun c -> Cm.set_trace c tr) cm;
          sys.recorder <- Some rec_)

(* Every experiment builds its CM through here so the endpoint-fault
   defenses (feedback watchdog + misbehaviour auditor) can be toggled
   uniformly — the bench measures their overhead this way. *)
let create_cm sys ?host ?mtu ?scheduler ?controller () =
  let feedback_watchdog, auditor =
    if sys.params.defenses then (Some Cm.Macroflow.default_watchdog, Some Cm.default_auditor)
    else (None, None)
  in
  let cm = Cm.create sys.engine ?mtu ?scheduler ?controller ?feedback_watchdog ?auditor () in
  Option.iter (Cm.attach cm) host;
  cm

let pipe_links (net : Topology.pipe) = [ ("ab", net.ab); ("ba", net.ba) ]

let window_bps tl ~from_ ~until =
  let bytes =
    List.fold_left
      (fun acc (p : Timeline.point) ->
        if p.Timeline.time >= from_ && p.Timeline.time < until then acc +. p.Timeline.value
        else acc)
      0. (Timeline.points tl)
  in
  bytes *. 8. /. Time.to_float_s (Time.diff until from_)

let kbps bits_per_s = bits_per_s /. 8. /. 1000.

let print_header name =
  print_endline "";
  print_endline ("== " ^ name ^ " ==")

let print_row = print_endline

(* The serializer lives in [Cm_util.Json] so every machine-readable
   channel (experiments, telemetry, tracer) formats floats identically. *)
module Json = Cm_util.Json

let measured_bulk params ~driver ~bandwidth_bps ~delay ?(loss = 0.) ?(qdisc_limit = 100)
    ?(costs = Costs.zero) ?(duration = Time.sec 30.) ?bytes () =
  with_system params @@ fun sys ->
  let engine = sys.engine in
  let net =
    Topology.pipe engine ~bandwidth_bps ~delay ~loss_rate:loss ~qdisc_limit ~rng:sys.rng ~costs ()
  in
  let cm = create_cm sys ~host:net.Topology.a () in
  observe sys ~links:(pipe_links net) ~cm ();
  let drv = driver (Some cm) in
  let delivered = ref 0 in
  let finished_at = ref None in
  let target = bytes in
  let _listener =
    Tcp.Conn.listen net.Topology.b ~port:80
      ~on_accept:(fun conn ->
        Tcp.Conn.on_receive conn (fun n ->
            delivered := !delivered + n;
            match target with
            | Some want when !delivered >= want && !finished_at = None ->
                finished_at := Some (Engine.now engine)
            | _ -> ()))
      ()
  in
  let conn = Tcp.Conn.connect net.Topology.a ~dst:(Addr.endpoint ~host:1 ~port:80) ~driver:drv () in
  let to_send = match target with Some b -> b | None -> 1 lsl 34 in
  Tcp.Conn.send conn to_send;
  let busy0 = Cpu.total_busy (Host.cpu net.Topology.a) in
  (match target with
  | Some _ ->
      (* run until delivery completes (bounded by a generous limit) *)
      let guard = ref 0 in
      while !finished_at = None && !guard < 10_000 do
        incr guard;
        Engine.run_for engine (Time.ms 100)
      done
  | None -> Engine.run_for engine duration);
  let elapsed =
    match !finished_at with Some t -> t | None -> Engine.now engine
  in
  let elapsed = Stdlib.max elapsed 1 in
  let busy = Cpu.total_busy (Host.cpu net.Topology.a) - busy0 in
  let goodput = float_of_int (!delivered * 8) /. Time.to_float_s elapsed in
  let util = float_of_int busy /. float_of_int elapsed in
  (goodput, util)
