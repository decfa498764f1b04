open Cm_util
module Scenario = Cm_dynamics.Scenario

(* Stage 1 of the spec pipeline: elaborate the combinator algebra into a
   validated intermediate graph, running every static check before a
   single simulation event exists.  Each diagnostic carries the source
   span of the element that caused it. *)

type diag = { d_code : string; d_span : Spec.span; d_msg : string }

let diag_str d = Printf.sprintf "[%s] %s: %s" d.d_code (Spec.span_str d.d_span) d.d_msg

type node = { n_name : string; n_kind : Spec.node_kind; n_addr : int; n_span : Spec.span }

type edge = {
  e_name : string;
  e_src : int;
  e_dst : int;
  e_bw : float;
  e_lat : Time.span;
  e_queue : int;
  e_span : Spec.span;
}

type group = {
  g_name : string;
  g_srcs : int array;
  g_dst : int;
  g_port : int;
  g_app : Spec.app;
  g_start : Time.t;
  g_stagger : Time.span;
  g_stop : Time.t option;
  g_span : Spec.span;
}

type fault_target = On_link of int | On_host of int

type fault = {
  f_at : Time.t;
  f_target : fault_target;
  f_action : Scenario.action;
  f_span : Spec.span;
}

type ir = {
  ir_nodes : node array;
  ir_edges : edge array;
  ir_groups : group array;
  ir_faults : fault array;
  ir_out : int list array;  (** per node: out-edge indices, declaration order *)
  ir_in : int array array;  (** per node: in-edge indices, declaration order *)
  ir_node_idx : (string, int) Hashtbl.t;  (** node name -> index *)
  ir_edge_idx : (string, int) Hashtbl.t;  (** link name -> index *)
}

let is_host ir i = ir.ir_nodes.(i).n_kind = Spec.Host
let node_name ir i = ir.ir_nodes.(i).n_name
let edge_name ir i = ir.ir_edges.(i).e_name

let fault_target_name ir = function
  | On_link ei -> edge_name ir ei
  | On_host ni -> node_name ir ni

let fault_target_str ir = function
  | On_link ei -> Printf.sprintf "link %S" (edge_name ir ei)
  | On_host ni -> Printf.sprintf "host %S's control plane" (node_name ir ni)

(* ---- routing ------------------------------------------------------------ *)

(* One BFS workspace, reused for every destination of a pass: a distance
   buffer (max_int = unreachable) and an int-array queue.  After a search
   [queue.(0 .. visited-1)] are exactly the nodes with a finite distance,
   so the next search resets only those. *)
type bfs = { dist : int array; queue : int array; mutable visited : int }

let bfs_create ir =
  let n = Array.length ir.ir_nodes in
  { dist = Array.make n max_int; queue = Array.make n 0; visited = 0 }

(* Hop distance of every node from/to [root] over [adj] (per node: edge
   indices).  [toward] searches over in-edges (distance *to* root, the
   routing direction), otherwise over out-edges (distance *from* root).
   Hosts do not forward: only [root] and routers expand, so a path
   "through" a host is never counted. *)
let bfs_run ir w ~adj ~toward root =
  let dist = w.dist and queue = w.queue in
  for i = 0 to w.visited - 1 do
    dist.(queue.(i)) <- max_int
  done;
  dist.(root) <- 0;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    if v = root || not (is_host ir v) then begin
      let d = dist.(v) + 1 and es = adj.(v) in
      for k = 0 to Array.length es - 1 do
        let e = ir.ir_edges.(es.(k)) in
        let u = if toward then e.e_src else e.e_dst in
        if dist.(u) = max_int then begin
          dist.(u) <- d;
          queue.(!tail) <- u;
          incr tail
        end
      done
    end
  done;
  w.visited <- !tail

let dist_to ir ~dst =
  let w = bfs_create ir in
  bfs_run ir w ~adj:ir.ir_in ~toward:true dst;
  w.dist

(* The first out-edge in the list that steps from distance [du] one hop
   closer and lands on a node that forwards — a router — or on the
   destination itself (distance 0); -1 if none.  Declaration order is the
   deterministic tie-break (no ECMP). *)
let rec first_hop ir dist du = function
  | [] -> -1
  | ei :: rest ->
      let v = ir.ir_edges.(ei).e_dst in
      if dist.(v) = du - 1 && (du = 1 || not (is_host ir v)) then ei
      else first_hop ir dist du rest

let hop ir dist u =
  let du = dist.(u) in
  if du = max_int || du = 0 then -1 else first_hop ir dist du ir.ir_out.(u)

let next_hop ir dist u = match hop ir dist u with -1 -> None | ei -> Some ei

(* Edge indices along the deterministic route src → dst, if any. *)
let route ir dist ~src =
  let rec walk u acc =
    match next_hop ir dist u with
    | None -> if dist.(u) = 0 then Some (List.rev acc) else None
    | Some ei -> walk ir.ir_edges.(ei).e_dst (ei :: acc)
  in
  if dist.(src) = max_int then None else walk src []

(* Every router table entry in one pass: destination hosts in declaration
   order, one reused BFS each, and for every router the search reached,
   its first declared out-edge that steps closer.  Every reached router
   has one: it was discovered over an edge into the destination or into
   a router one hop closer. *)
let iter_routes ir f =
  let w = bfs_create ir in
  Array.iteri
    (fun dst n ->
      if n.n_kind = Spec.Host then begin
        bfs_run ir w ~adj:ir.ir_in ~toward:true dst;
        for k = 1 to w.visited - 1 do
          let u = w.queue.(k) in
          if not (is_host ir u) then f ~dst ~router:u ~edge:(hop ir w.dist u)
        done
      end)
    ir.ir_nodes

(* ---- app parameters ----------------------------------------------------- *)

(* The rate an app insists on regardless of congestion feedback — what the
   oversubscription check sums per link.  Elastic apps (TCP transfers,
   web fetches) adapt to zero, layered sources never drop below their
   base layer. *)
let app_floor_bps = function
  | Spec.Bulk _ | Spec.Web_fetch _ -> 0.
  | Spec.Layered { layers; _ } -> if Array.length layers = 0 then 0. else layers.(0)

(* Ports an app claims on the destination: shared server vs one per flow. *)
let port_range ~port ~nsrcs = function
  | Spec.Web_fetch _ -> (port, port)
  | Spec.Bulk _ | Spec.Layered _ -> (port, port + Stdlib.max 1 nsrcs - 1)

(* ---- elaboration -------------------------------------------------------- *)

let elaborate spec =
  let diags = ref [] in
  let err code span fmt =
    Printf.ksprintf (fun msg -> diags := { d_code = code; d_span = span; d_msg = msg } :: !diags) fmt
  in
  (* 1. nodes: names unique across hosts and routers; addresses unique *)
  let nodes = ref [] and n_count = ref 0 in
  let node_idx = Hashtbl.create 64 in
  let next_auto = ref 0 in
  List.iter
    (function
      | Spec.Node { name; kind; id; span } ->
          if Hashtbl.mem node_idx name then err "dup-name" span "node %S declared twice" name
          else begin
            let addr =
              match (kind, id) with
              | Spec.Router, Some _ ->
                  err "bad-address" span "router %S cannot carry a host address" name;
                  -1
              | Spec.Router, None -> -1
              | Spec.Host, Some a ->
                  if a < 0 then err "bad-address" span "host %S: negative address %d" name a;
                  a
              | Spec.Host, None ->
                  let a = !next_auto in
                  incr next_auto;
                  a
            in
            (match (kind, id) with
            | Spec.Host, Some a when a >= !next_auto -> next_auto := a + 1
            | _ -> ());
            Hashtbl.replace node_idx name !n_count;
            nodes := { n_name = name; n_kind = kind; n_addr = addr; n_span = span } :: !nodes;
            incr n_count
          end
      | Spec.Link _ | Spec.Group _ | Spec.Fault _ -> ())
    spec;
  let nodes = Array.of_list (List.rev !nodes) in
  let addr_seen = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      if n.n_kind = Spec.Host then begin
        (match Hashtbl.find_opt addr_seen n.n_addr with
        | Some other ->
            err "dup-address" n.n_span "hosts %S and %S share address %d" other n.n_name n.n_addr
        | None -> ());
        Hashtbl.replace addr_seen n.n_addr n.n_name
      end)
    nodes;
  let resolve span what name =
    match Hashtbl.find_opt node_idx name with
    | Some i -> Some i
    | None ->
        err "unknown-node" span "%s references undeclared node %S" what name;
        None
  in
  (* 2. links *)
  let edges = ref [] and e_count = ref 0 in
  let edge_idx = Hashtbl.create 64 in
  List.iter
    (function
      | Spec.Link { name; src; dst; bw_bps; lat; queue; span } ->
          if Hashtbl.mem edge_idx name then err "dup-name" span "link %S declared twice" name;
          if Float.is_nan bw_bps || bw_bps <= 0. then
            err "bad-link-param" span "bandwidth must be positive (got %s bps)"
              (Json.float_str bw_bps);
          if lat < 0 then err "bad-link-param" span "negative latency";
          if queue <= 0 then err "bad-link-param" span "queue must hold at least one packet";
          if src = dst then err "self-link" span "link %S connects %S to itself" name src;
          (match (resolve span ("link " ^ name) src, resolve span ("link " ^ name) dst) with
          | Some s, Some d when src <> dst ->
              Hashtbl.replace edge_idx name !e_count;
              edges :=
                { e_name = name; e_src = s; e_dst = d; e_bw = bw_bps; e_lat = lat;
                  e_queue = queue; e_span = span }
                :: !edges;
              incr e_count
          | _ -> ())
      | Spec.Node _ | Spec.Group _ | Spec.Fault _ -> ())
    spec;
  let edges = Array.of_list (List.rev !edges) in
  let out = Array.make (Stdlib.max 1 (Array.length nodes)) [] in
  Array.iteri (fun ei e -> out.(e.e_src) <- ei :: out.(e.e_src)) edges;
  Array.iteri (fun i l -> out.(i) <- List.rev l) out;
  let in_ = Array.make (Array.length out) [] in
  for ei = Array.length edges - 1 downto 0 do
    in_.(edges.(ei).e_dst) <- ei :: in_.(edges.(ei).e_dst)
  done;
  let in_ = Array.map Array.of_list in_ in
  (* 3. hosts are single-homed: at most one outgoing link *)
  Array.iteri
    (fun i n ->
      if n.n_kind = Spec.Host && List.length out.(i) > 1 then
        err "multihomed-host" n.n_span
          "host %S has %d outgoing links (netsim hosts have one route); make it a router or \
           remove a link"
          n.n_name (List.length out.(i)))
    nodes;
  (* 4. flow groups *)
  let groups = ref [] in
  let group_seen = Hashtbl.create 16 in
  List.iter
    (function
      | Spec.Group { name; srcs; dst; port; app; start; stagger; stop; span } ->
          if Hashtbl.mem group_seen name then err "dup-name" span "flow group %S declared twice" name;
          Hashtbl.replace group_seen name ();
          if srcs = [] then err "empty-group" span "flow group %S has no sources" name;
          if port <= 0 then err "bad-app" span "port must be positive (got %d)" port;
          if start < 0 then err "bad-time" span "negative start time";
          if stagger < 0 then err "bad-time" span "negative stagger";
          (match stop with
          | Some s when s <= start -> err "bad-time" span "stop must come after start"
          | _ -> ());
          (match app with
          | Spec.Bulk { bytes } ->
              if bytes <= 0 then err "bad-app" span "bulk transfer needs positive bytes"
          | Spec.Web_fetch { object_bytes; count; gap } ->
              if object_bytes <= 0 then err "bad-app" span "fetch needs a positive object size";
              if count <= 0 then err "bad-app" span "fetch count must be positive";
              if gap < 0 then err "bad-app" span "negative fetch gap"
          | Spec.Layered { layers; packet_bytes; _ } ->
              if packet_bytes <= 0 then err "bad-app" span "packet_bytes must be positive";
              if Array.length layers = 0 then err "bad-app" span "layered source needs layers";
              Array.iteri
                (fun i r ->
                  if Float.is_nan r || r <= 0. then
                    err "bad-app" span "layer %d rate must be positive" i
                  else if i > 0 && r <= layers.(i - 1) then
                    err "bad-app" span "layer rates must be strictly ascending (layer %d)" i)
                layers);
          let resolve_host what n =
            match resolve span (Printf.sprintf "flow group %S %s" name what) n with
            | Some i when nodes.(i).n_kind = Spec.Router ->
                err "router-endpoint" span "flow group %S uses router %S as %s" name n what;
                None
            | r -> r
          in
          let dsti = resolve_host "destination" dst in
          let srcis = List.filter_map (resolve_host "source") srcs in
          (match dsti with
          | Some d when List.length srcis = List.length srcs ->
              groups :=
                { g_name = name; g_srcs = Array.of_list srcis; g_dst = d; g_port = port;
                  g_app = app; g_start = start; g_stagger = stagger; g_stop = stop; g_span = span }
                :: !groups
          | _ -> ())
      | Spec.Node _ | Spec.Link _ | Spec.Fault _ -> ())
    spec;
  let groups = Array.of_list (List.rev !groups) in
  (* 5. destination port claims must not clash *)
  let claims = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      let lo, hi = port_range ~port:g.g_port ~nsrcs:(Array.length g.g_srcs) g.g_app in
      let prev = try Hashtbl.find claims g.g_dst with Not_found -> [] in
      List.iter
        (fun (lo', hi', g') ->
          if lo <= hi' && lo' <= hi then
            match (g.g_app, g'.g_app) with
            | Spec.Web_fetch { object_bytes = a; _ }, Spec.Web_fetch { object_bytes = b; _ }
              when g.g_port = g'.g_port && a = b ->
                () (* same shared server: fine *)
            | Spec.Web_fetch _, Spec.Web_fetch _ when g.g_port = g'.g_port ->
                err "server-conflict" g.g_span
                  "flow groups %S and %S share server %s:%d but serve different object sizes"
                  g'.g_name g.g_name nodes.(g.g_dst).n_name g.g_port
            | _ ->
                err "port-clash" g.g_span
                  "flow groups %S and %S claim overlapping ports [%d,%d] and [%d,%d] on %S"
                  g'.g_name g.g_name lo' hi' lo hi nodes.(g.g_dst).n_name)
        prev;
      Hashtbl.replace claims g.g_dst ((lo, hi, g) :: prev))
    groups;
  (* 6. faults *)
  let faults = ref [] in
  List.iter
    (function
      | Spec.Fault { at; target; action; span } ->
          if at < 0 then err "bad-time" span "negative fault time";
          (try ignore (Scenario.make ~name:"check" [ { Scenario.at = Stdlib.max at 0; target; action } ])
           with Invalid_argument m -> err "bad-fault" span "%s" m);
          (match action with
          | Scenario.Control_fault _ -> (
              (* control faults degrade a *host*'s feedback plane, not a link *)
              match Hashtbl.find_opt node_idx target with
              | Some ni when nodes.(ni).n_kind = Spec.Host ->
                  faults :=
                    { f_at = at; f_target = On_host ni; f_action = action; f_span = span }
                    :: !faults
              | Some _ ->
                  err "control-target" span
                    "control fault targets router %S; control-plane injectors live on hosts"
                    target
              | None ->
                  err "control-target" span "control fault targets undeclared host %S" target)
          | _ -> (
              match Hashtbl.find_opt edge_idx target with
              | Some ei ->
                  faults :=
                    { f_at = at; f_target = On_link ei; f_action = action; f_span = span }
                    :: !faults
              | None -> err "unknown-target" span "fault targets undeclared link %S" target))
      | Spec.Node _ | Spec.Link _ | Spec.Group _ -> ())
    spec;
  let faults = Array.of_list (List.rev !faults) in
  let ir =
    { ir_nodes = nodes; ir_edges = edges; ir_groups = groups; ir_faults = faults; ir_out = out;
      ir_in = in_; ir_node_idx = node_idx; ir_edge_idx = edge_idx }
  in
  (* 7. overlapping bounded disruptions on the same link are ambiguous *)
  let by_target = Hashtbl.create 8 in
  Array.iter
    (fun f ->
      match Scenario.action_window f.f_at f.f_action with
      | Some w ->
          let prev = try Hashtbl.find by_target f.f_target with Not_found -> [] in
          Hashtbl.replace by_target f.f_target ((w, f) :: prev)
      | None -> ())
    faults;
  Hashtbl.iter
    (fun target windows ->
      let sorted = List.sort (fun ((s, _), _) ((s', _), _) -> Time.compare s s') (List.rev windows) in
      let rec scan = function
        | ((_, e1), f1) :: (((s2, _), f2) :: _ as rest) ->
            if s2 < e1 then
              err "fault-overlap" f2.f_span
                "bounded disruptions overlap on %s (previous one from %s clears at t=%ss, \
                 this one starts at t=%ss)"
                (fault_target_str ir target) (Spec.span_str f1.f_span)
                (Json.float_str (Time.to_float_s e1))
                (Json.float_str (Time.to_float_s s2));
            scan rest
        | [ _ ] | [] -> ()
      in
      scan sorted)
    by_target;
  (* 8. reachability: every source must reach its destination, and the
     destination must reach every source (the feedback path) *)
  let out_arrays = Array.map Array.of_list out in
  let back = bfs_create ir and fwd = bfs_create ir in
  Array.iter
    (fun g ->
      bfs_run ir back ~adj:in_ ~toward:true g.g_dst;
      bfs_run ir fwd ~adj:out_arrays ~toward:false g.g_dst;
      Array.iter
        (fun s ->
          if back.dist.(s) = max_int then
            err "unreachable" g.g_span "flow group %S: source %S cannot reach %S" g.g_name
              (node_name ir s) (node_name ir g.g_dst);
          if fwd.dist.(s) = max_int then
            err "unreachable" g.g_span "flow group %S: %S cannot reach source %S (no feedback path)"
              g.g_name (node_name ir g.g_dst) (node_name ir s))
        g.g_srcs)
    groups;
  (* 9. capacity sanity: the inelastic floor routed over each link must fit *)
  let floor_demand = Array.make (Stdlib.max 1 (Array.length edges)) 0. in
  Array.iter
    (fun g ->
      let f = app_floor_bps g.g_app in
      if f > 0. then begin
        bfs_run ir back ~adj:in_ ~toward:true g.g_dst;
        Array.iter
          (fun s ->
            match route ir back.dist ~src:s with
            | Some path -> List.iter (fun ei -> floor_demand.(ei) <- floor_demand.(ei) +. f) path
            | None -> ())
          g.g_srcs
      end)
    groups;
  Array.iteri
    (fun ei e ->
      if floor_demand.(ei) > e.e_bw then
        err "oversubscribed" e.e_span
          "link %S carries an inelastic floor of %s bps against %s bps capacity; lower the base \
           layer rates or raise the link"
          e.e_name (Json.float_str floor_demand.(ei)) (Json.float_str e.e_bw))
    edges;
  match List.rev !diags with [] -> Ok ir | ds -> Error ds

let check spec = match elaborate spec with Ok _ -> [] | Error ds -> ds

let elaborate_exn spec =
  match elaborate spec with
  | Ok ir -> ir
  | Error ds ->
      invalid_arg
        ("Spec check failed:\n  " ^ String.concat "\n  " (List.map diag_str ds))

(* ---- compiled-topology summary (cm_expt spec --dump) -------------------- *)

let elastic_counts ir =
  let counts = Array.make (Stdlib.max 1 (Array.length ir.ir_edges)) 0 in
  let w = bfs_create ir in
  Array.iter
    (fun g ->
      bfs_run ir w ~adj:ir.ir_in ~toward:true g.g_dst;
      Array.iter
        (fun s ->
          match route ir w.dist ~src:s with
          | Some path -> List.iter (fun ei -> counts.(ei) <- counts.(ei) + 1) path
          | None -> ())
        g.g_srcs)
    ir.ir_groups;
  counts

let summary_json ir =
  let open Json in
  let hosts = Array.to_list ir.ir_nodes |> List.filter (fun n -> n.n_kind = Spec.Host) in
  let routers = Array.length ir.ir_nodes - List.length hosts in
  let total_bw = Array.fold_left (fun acc e -> acc +. e.e_bw) 0. ir.ir_edges in
  let counts = elastic_counts ir in
  (* busiest links by forward flow count; capped so huge client fan-outs
     stay readable *)
  let busiest =
    Array.to_list (Array.mapi (fun ei e -> (counts.(ei), e)) ir.ir_edges)
    |> List.filter (fun (c, _) -> c > 0)
    |> List.sort (fun (c, e) (c', e') ->
           match compare c' c with 0 -> compare e.e_name e'.e_name | o -> o)
    |> fun l -> List.filteri (fun i _ -> i < 12) l
  in
  let group_json g =
    Obj
      [
        ("name", Str g.g_name);
        ("sources", Int (Array.length g.g_srcs));
        ("dst", Str (node_name ir g.g_dst));
        ("port", Int g.g_port);
        ( "app",
          Str
            (match g.g_app with
            | Spec.Bulk { bytes } -> Printf.sprintf "bulk:%dB" bytes
            | Spec.Web_fetch { object_bytes; count; _ } ->
                Printf.sprintf "web_fetch:%dB x%d" object_bytes count
            | Spec.Layered { layers; _ } ->
                Printf.sprintf "layered:%d layers <=%s bps" (Array.length layers)
                  (Json.float_str layers.(Array.length layers - 1))) );
        ("start_s", Float (Time.to_float_s g.g_start));
        ("stagger_s", Float (Time.to_float_s g.g_stagger));
        ("stop_s", match g.g_stop with Some s -> Float (Time.to_float_s s) | None -> Null);
      ]
  in
  let fault_json f =
    let window = Scenario.action_window f.f_at f.f_action in
    Obj
      [
        ("target", Str (fault_target_name ir f.f_target));
        ("at_s", Float (Time.to_float_s f.f_at));
        ( "kind",
          Str
            (match f.f_action with
            | Scenario.Set_bandwidth _ -> "set_bandwidth"
            | Scenario.Ramp_bandwidth _ -> "ramp_bandwidth"
            | Scenario.Set_loss _ -> "set_loss"
            | Scenario.Loss_burst _ -> "loss_burst"
            | Scenario.Outage _ -> "outage"
            | Scenario.Flap _ -> "flap"
            | Scenario.Delay_spike _ -> "delay_spike"
            | Scenario.Control_fault _ -> "control_fault") );
        ("clears_s", match window with Some (_, e) -> Float (Time.to_float_s e) | None -> Null);
      ]
  in
  Obj
    [
      ("hosts", Int (List.length hosts));
      ("routers", Int routers);
      ("links", Int (Array.length ir.ir_edges));
      ("flow_groups", Int (Array.length ir.ir_groups));
      ("flows", Int (Array.fold_left (fun acc g -> acc + Array.length g.g_srcs) 0 ir.ir_groups));
      ("faults", Int (Array.length ir.ir_faults));
      ("total_link_bps", Float total_bw);
      ( "busiest_links",
        List
          (List.map
             (fun (c, e) ->
               Obj
                 [
                   ("link", Str e.e_name);
                   ("flows", Int c);
                   ("bandwidth_bps", Float e.e_bw);
                   ( "oversubscription",
                     Float (float_of_int c) );
                 ])
             busiest) );
      ("groups", List (Array.to_list (Array.map group_json ir.ir_groups)));
      ("fault_steps", List (Array.to_list (Array.map fault_json ir.ir_faults)));
    ]
