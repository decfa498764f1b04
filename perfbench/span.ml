(* In-memory span store for the traced run.

   One span per timed call into a library or per callback the library
   makes into the benchmark.  Each span keeps its kind, its parent (the
   span open when it started), its start and end on the monotonic clock,
   and the minor-heap words allocated between its start and end.  Spans
   live in one off-heap Bigarray so that recording them neither allocates
   on the OCaml heap nor adds to what the GC scans; they are summarised
   and written out only after the run. *)

open Bigarray

type kind =
  | Run_for  (** [Engine.run_for]; its self time is the engine residual *)
  | Link_send  (** [Link.send] handed to a host or router route *)
  | Deliver  (** link sink: [Host.deliver] or [Router.forward] *)
  | Tcp_rx  (** [Host.deliver] inside a host sink: TCP/UDP input *)
  | Tcp_send  (** [Tcp.Conn.send] *)
  | Cm_request
  | Cm_notify
  | Cm_update
  | Cm_open
  | Cm_close
  | Libcm_request
  | Libcm_update
  | Libcm_cb  (** the callback handed to [Libcm.register_send] *)
  | Udp_send
  | Apps_cb  (** the benchmark's own callbacks *)
  | Spec_elaborate
  | Spec_build
  | Spec_launch
  | Tel_capture
  | Tel_export
  | Report_analyze

let all_kinds =
  [
    Run_for; Link_send; Deliver; Tcp_rx; Tcp_send; Cm_request; Cm_notify; Cm_update; Cm_open;
    Cm_close; Libcm_request; Libcm_update; Libcm_cb; Udp_send; Apps_cb; Spec_elaborate;
    Spec_build; Spec_launch; Tel_capture; Tel_export; Report_analyze;
  ]

let name = function
  | Run_for -> "eventsim.run_for"
  | Link_send -> "netsim.link_send"
  | Deliver -> "netsim.deliver"
  | Tcp_rx -> "tcp.rx"
  | Tcp_send -> "tcp.send"
  | Cm_request -> "cm.request"
  | Cm_notify -> "cm.notify"
  | Cm_update -> "cm.update"
  | Cm_open -> "cm.open"
  | Cm_close -> "cm.close"
  | Libcm_request -> "libcm.request"
  | Libcm_update -> "libcm.update"
  | Libcm_cb -> "libcm.cb"
  | Udp_send -> "udp.send"
  | Apps_cb -> "apps.cb"
  | Spec_elaborate -> "spec.elaborate"
  | Spec_build -> "spec.build"
  | Spec_launch -> "spec.launch"
  | Tel_capture -> "telemetry.capture"
  | Tel_export -> "telemetry.export"
  | Report_analyze -> "report.analyze"

let kind_index = function
  | Run_for -> 0
  | Link_send -> 1
  | Deliver -> 2
  | Tcp_rx -> 3
  | Tcp_send -> 4
  | Cm_request -> 5
  | Cm_notify -> 6
  | Cm_update -> 7
  | Cm_open -> 8
  | Cm_close -> 9
  | Libcm_request -> 10
  | Libcm_update -> 11
  | Libcm_cb -> 12
  | Udp_send -> 13
  | Apps_cb -> 14
  | Spec_elaborate -> 15
  | Spec_build -> 16
  | Spec_launch -> 17
  | Tel_capture -> 18
  | Tel_export -> 19
  | Report_analyze -> 20

let n_kinds = List.length all_kinds
let kinds = Array.of_list all_kinds

(* Field layout of one span in the store: the kind and the parent share
   one word (parent + 1 above five kind bits); the words field holds the
   minor-heap counter at the start until the span ends, then the words
   allocated inside it. *)
let f_meta = 0
let f_start = 1
let f_stop = 2
let f_words = 3
let stride = 4
let kind_bits = 5

type store = (int, int_elt, c_layout) Array1.t

type t = {
  on : bool;
  mutable buf : store;
  mutable n : int;  (** spans recorded *)
  mutable cur : int;  (** innermost open span, or -1 *)
}

let fresh cap = Array1.create int c_layout (cap * stride)
let off = { on = false; buf = fresh 0; n = 0; cur = -1 }
let create () = { on = true; buf = fresh (1 lsl 18); n = 0; cur = -1 }
let enabled t = t.on
let count t = t.n

let grow t =
  let old = t.buf in
  let nb = fresh (2 * (Array1.dim old / stride)) in
  Array1.blit old (Array1.sub nb 0 (Array1.dim old));
  t.buf <- nb

let[@inline] clock () = Int64.to_int (Monotonic_clock.now ())
let[@inline] words () = int_of_float (Gc.minor_words ())
let[@inline] meta k parent = kind_index k lor ((parent + 1) lsl kind_bits)

(* [enter] returns the span's index, or -1 when tracing is off; [leave]
   ignores -1.  Bookkeeping happens before the start stamps and after the
   end stamps, so a span's own recording cost stays outside it. *)
let[@inline] enter t k =
  if not t.on then -1
  else begin
    let i = t.n in
    if (i + 1) * stride > Array1.dim t.buf then grow t;
    let b = t.buf and o = i * stride in
    Array1.unsafe_set b (o + f_meta) (meta k t.cur);
    t.cur <- i;
    t.n <- i + 1;
    Array1.unsafe_set b (o + f_words) (words ());
    Array1.unsafe_set b (o + f_start) (clock ());
    i
  end

let[@inline] leave t i =
  if i >= 0 then begin
    let stop = clock () in
    let w = words () in
    let b = t.buf and o = i * stride in
    Array1.unsafe_set b (o + f_stop) stop;
    Array1.unsafe_set b (o + f_words) (w - Array1.unsafe_get b (o + f_words));
    t.cur <- (Array1.unsafe_get b (o + f_meta) lsr kind_bits) - 1
  end

(* Add a finished span with explicit stamps: how the self-tests build
   synthetic span sets.  Spans must be pushed in start order. *)
let push t k ~parent ~start ~stop ~words =
  if (t.n + 1) * stride > Array1.dim t.buf then grow t;
  let b = t.buf and o = t.n * stride in
  b.{o + f_meta} <- meta k parent;
  b.{o + f_start} <- start;
  b.{o + f_stop} <- stop;
  b.{o + f_words} <- words;
  t.n <- t.n + 1

let field t i f = Array1.unsafe_get t.buf ((i * stride) + f)

let kind_of t i = field t i f_meta land ((1 lsl kind_bits) - 1)
let parent_of t i = (field t i f_meta lsr kind_bits) - 1

(* Self time: a span's duration minus the part of it its children cover,
   each child clipped to its parent's interval.  The spans of one thread
   nest, so a parent's children never overlap one another.  Self words: a
   span's allocation minus its children's.  Returns (self ns, self words)
   per span, in off-heap arrays. *)
let self t =
  let n = t.n in
  let self_ns = Array1.create int c_layout n and self_words = Array1.create int c_layout n in
  for i = 0 to n - 1 do
    self_ns.{i} <- field t i f_stop - field t i f_start;
    self_words.{i} <- field t i f_words
  done;
  for c = 0 to n - 1 do
    let p = parent_of t c in
    if p >= 0 then begin
      let lo = max (field t c f_start) (field t p f_start)
      and hi = min (field t c f_stop) (field t p f_stop) in
      if hi > lo then self_ns.{p} <- self_ns.{p} - (hi - lo);
      self_words.{p} <- self_words.{p} - field t c f_words
    end
  done;
  (self_ns, self_words)

type row = { r_kind : kind; r_calls : int; r_self_ns : int; r_self_words : int }

(* One row per kind: calls, total self ns and total self words. *)
let table t =
  let self_ns, self_words = self t in
  let calls = Array.make n_kinds 0 and ns = Array.make n_kinds 0 and ws = Array.make n_kinds 0 in
  for i = 0 to t.n - 1 do
    let k = kind_of t i in
    calls.(k) <- calls.(k) + 1;
    ns.(k) <- ns.(k) + self_ns.{i};
    ws.(k) <- ws.(k) + self_words.{i}
  done;
  List.mapi
    (fun k kd -> { r_kind = kd; r_calls = calls.(k); r_self_ns = ns.(k); r_self_words = ws.(k) })
    all_kinds

let find_row rows k = List.find (fun r -> r.r_kind = k) rows
let per_call total calls = if calls = 0 then 0. else float_of_int total /. float_of_int calls

(* Tab-separated dump, delta-encoded to keep multi-million-span runs
   small: per span its kind index, how many spans back its parent is (0
   for a root), its start in ns after the previous span's start, its
   duration in ns and the minor words allocated inside it. *)
let write t path =
  let oc = open_out_bin path in
  output_string oc "# perfbench spans: kind\tparent_back\tstart_delta_ns\tduration_ns\twords\n# kinds:";
  List.iteri (fun k kd -> Printf.fprintf oc " %d=%s" k (name kd)) all_kinds;
  output_char oc '\n';
  let prev = ref (if t.n = 0 then 0 else field t 0 f_start) in
  for i = 0 to t.n - 1 do
    let p = parent_of t i and start = field t i f_start in
    Printf.fprintf oc "%d\t%d\t%d\t%d\t%d\n" (kind_of t i)
      (if p < 0 then 0 else i - p)
      (start - !prev)
      (field t i f_stop - start)
      (field t i f_words);
    prev := start
  done;
  close_out oc
