(** Stage 1 of the spec pipeline: elaboration and static checks.

    {!elaborate} turns a {!Spec.t} into a validated intermediate graph —
    nodes, edges, flow groups and fault steps with every name resolved to
    an index — or a list of diagnostics, each carrying the source span of
    the offending combinator.  All checks run before any simulation event
    exists:

    - [dup-name] / [dup-address] / [bad-address] — name and host-address
      uniqueness (explicit [?id]s collide with auto-assigned ones too);
    - [bad-link-param] — NaN/non-positive bandwidth, negative latency,
      non-positive queue;
    - [unknown-node] / [self-link] — link endpoint resolution;
    - [multihomed-host] — netsim hosts carry a single route;
    - [router-endpoint] / [empty-group] / [bad-app] / [bad-time] — flow
      group sanity (ports, sizes, ascending layer rates, start/stop/stagger);
    - [port-clash] / [server-conflict] — overlapping destination port
      claims (per-flow apps claim [port..port+n-1], web fetches may share
      a server only at equal object size);
    - [unknown-target] / [bad-fault] / [fault-overlap] — fault steps
      resolve to links, pass {!Cm_dynamics.Scenario.make} validation, and
      bounded disruptions on one target never overlap;
    - [control-target] — control-plane faults ([Control_fault]) must
      target a declared {e host} (the injector lives on the host's
      receive path), never a router or a link;
    - [unreachable] — every source reaches its destination and vice versa
      (feedback path), under the hosts-don't-forward routing rule (a
      route's next hop is always a router or the destination itself);
    - [oversubscribed] — the inelastic floor (layered sources' base
      layers) routed over each link fits its capacity. *)

open Cm_util

type diag = { d_code : string; d_span : Spec.span; d_msg : string }

val diag_str : diag -> string
(** ["[code] span: message"]. *)

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

type fault_target =
  | On_link of int  (** Edge index: network faults degrade a link. *)
  | On_host of int
      (** Node index: [Control_fault] steps degrade a host's
          control-plane injector. *)

type fault = {
  f_at : Time.t;
  f_target : fault_target;
  f_action : Cm_dynamics.Scenario.action;
  f_span : Spec.span;
}

type ir = {
  ir_nodes : node array;
  ir_edges : edge array;
  ir_groups : group array;
  ir_faults : fault array;
  ir_out : int list array;  (** per node: out-edge indices, declaration order *)
  ir_in : int array array;
      (** per node: in-edge indices, declaration order — the reverse
          adjacency every routing search runs over, built once here *)
  ir_node_idx : (string, int) Hashtbl.t;  (** node name -> index *)
  ir_edge_idx : (string, int) Hashtbl.t;  (** link name -> index *)
}

val elaborate : Spec.t -> (ir, diag list) result
(** Elaborate and run every static check.  [Error] is non-empty and in
    first-reported order. *)

val check : Spec.t -> diag list
(** Just the diagnostics ([] = clean). *)

val elaborate_exn : Spec.t -> ir
(** Raises [Invalid_argument] with all diagnostics rendered. *)

val iter_routes : ir -> (dst:int -> router:int -> edge:int -> unit) -> unit
(** [iter_routes ir f] calls [f ~dst ~router ~edge] once for every
    router table entry: [router] forwards packets for host [dst] over
    out-edge [edge].  Destinations come in declaration order; each gets
    one breadth-first search over [ir_in] in a distance buffer and
    queue shared by the whole pass, so the pass allocates nothing per
    destination and costs [O(hosts × (V + E))].  Every router the search
    reaches gets an entry, chosen exactly as {!next_hop} chooses.  The
    static checks run the same search, so checker and {!Build} can never
    disagree on reachability or on the path. *)

val dist_to : ir -> dst:int -> int array
(** Hop distance of every node to [dst] ([max_int] = unreachable), under
    the hosts-don't-forward rule: the search expands only [dst] and
    routers.  One fresh buffer per call; {!iter_routes} is the
    all-destinations form. *)

val next_hop : ir -> int array -> int -> int option
(** [next_hop ir dist u] is the out-edge of [u] one hop closer to the
    distance map's destination whose far end forwards — a router — or is
    the destination itself; never a host that merely has a distance of
    its own.  The first declared such edge wins, the deterministic
    tie-break {!iter_routes} and {!Build} use. *)

val route : ir -> int array -> src:int -> int list option
(** [route ir (dist_to ir ~dst) ~src] is the deterministic edge path
    src → dst (first declared out-edge that steps closer wins). *)

val summary_json : ir -> Json.t
(** Compiled-topology summary for [cm_expt spec --dump]: element counts,
    aggregate capacity, per-group and per-fault digests, and the busiest
    links by routed flow count (capped at 12 for readability). *)
