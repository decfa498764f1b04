(* Self-tests of the repository benchmark: every workload at tiny size
   prints every metric by name with its unit, a perturbed reference makes
   fail_frac positive, and the self-time arithmetic holds on a synthetic
   nested span set. *)

open Perfbench
module Json = Cm_util.Json

let metrics_of (r : Harness.result) =
  match Json.parse (Harness.json r) with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "metrics" fields with
      | Some (Json.Obj m) -> m
      | _ -> Alcotest.fail "result has no metrics object")
  | Ok _ -> Alcotest.fail "result is not a JSON object"
  | Error e -> Alcotest.fail ("result is not JSON: " ^ e)

let check_metric_set r expected =
  let m = metrics_of r in
  Alcotest.(check (list string)) "metric names" (List.map fst expected) (List.map fst m);
  List.iter
    (fun (name, unit) ->
      match List.assoc name m with
      | Json.Obj f ->
          Alcotest.(check (option string))
            (name ^ " unit") (Some unit)
            (match List.assoc_opt "unit" f with Some (Json.Str u) -> Some u | _ -> None);
          Alcotest.(check bool) (name ^ " has a numeric value") true
            (match List.assoc_opt "value" f with Some (Json.Int _ | Json.Float _) -> true | _ -> false)
      | _ -> Alcotest.fail (name ^ " is not an object"))
    expected;
  List.iter
    (fun (name, unit) ->
      Alcotest.(check bool)
        (name ^ " printed with its unit") true
        (List.exists
           (fun l ->
             let w = String.split_on_char ' ' l |> List.filter (( <> ) "") in
             match w with n :: _ :: u :: _ -> n = name && u = unit | _ -> false)
           r.Harness.lines))
    expected

let tiny ?reference ~trace w =
  Harness.measure ~min_reps:1 ?reference w ~size:Common.Tiny ~seed:42 ~seconds:0. ~trace

let test_end_to_end (w : Common.workload) () =
  let r = tiny ~trace:false w in
  Alcotest.(check bool) "outputs check clean" true r.Harness.correct;
  Alcotest.(check int) "no failed units" 0 r.Harness.failed;
  check_metric_set r Harness.end_to_end;
  Alcotest.(check bool) "fail_frac printed" true
    (List.exists (fun l -> String.length l > 9 && String.sub l 0 9 = "fail_frac") r.Harness.lines)

let test_traced (w : Common.workload) () =
  let r = tiny ~trace:true w in
  Alcotest.(check bool) "traced outputs equal untraced ones" true r.Harness.correct;
  check_metric_set r (List.map (fun (n, u, _) -> (n, u)) Harness.per_layer);
  Alcotest.(check bool) "residual row printed" true
    (List.exists
       (fun l -> String.length l > 8 && String.sub l 0 8 = "residual")
       r.Harness.lines)

let test_perturbed_reference () =
  let w = W_pipe.workload in
  let base = Harness.fresh_rep w Common.Tiny ~seed:42 Span.off in
  let clean = tiny ~reference:base.Common.outputs ~trace:false w in
  Alcotest.(check int) "the true outputs as reference: nothing fails" 0 clean.Harness.failed;
  let perturbed =
    List.map
      (fun (k, v) -> if k = "tcp.events" then (k, string_of_int (int_of_string v + 1)) else (k, v))
      base.Common.outputs
  in
  let r = tiny ~reference:perturbed ~trace:false w in
  Alcotest.(check bool) "a perturbed reference fails the check" false r.Harness.correct;
  Alcotest.(check bool) "fail_frac > 0" true (r.Harness.failed > 0 && r.Harness.attempted > 0)

(* A root [0,100] with children [10,40] and [50,90], the first of which
   has a child [15,25]; a last child sticks out of its parent [95,120]
   and is clipped to it.  Words nest the same way. *)
let test_self_time () =
  let t = Span.create () in
  Span.push t Span.Apps_cb ~parent:(-1) ~start:0 ~stop:100 ~words:50;
  Span.push t Span.Cm_request ~parent:0 ~start:10 ~stop:40 ~words:20;
  Span.push t Span.Cm_notify ~parent:1 ~start:15 ~stop:25 ~words:5;
  Span.push t Span.Cm_request ~parent:0 ~start:50 ~stop:90 ~words:10;
  Span.push t Span.Cm_update ~parent:0 ~start:95 ~stop:120 ~words:3;
  let ns, words = Span.self t in
  Alcotest.(check (list int)) "self ns" [ 25; 20; 10; 40; 25 ] (List.init 5 (fun i -> ns.{i}));
  Alcotest.(check (list int)) "self words" [ 17; 15; 5; 10; 3 ] (List.init 5 (fun i -> words.{i}));
  let rows = Span.table t in
  let row k = Span.find_row rows k in
  Alcotest.(check (list int)) "cm.request row: calls, self ns, self words" [ 2; 60; 25 ]
    (let r = row Span.Cm_request in
     [ r.Span.r_calls; r.Span.r_self_ns; r.Span.r_self_words ]);
  Alcotest.(check int) "untouched kinds have no calls" 0 (row Span.Tcp_rx).Span.r_calls

(* enter/leave nest like the calls they wrap and record what ran inside *)
let test_recorded_nesting () =
  let t = Span.create () in
  let a = Span.enter t Span.Apps_cb in
  let b = Span.enter t Span.Cm_request in
  ignore (Sys.opaque_identity (Array.make 10 0));
  Span.leave t b;
  Span.leave t a;
  Alcotest.(check int) "two spans" 2 (Span.count t);
  let _, words = Span.self t in
  Alcotest.(check bool) "the allocation is charged to the inner span" true (words.{1} >= 11);
  Alcotest.(check int) "and not to the outer one" 0 words.{0};
  Alcotest.(check int) "tracing off records nothing" (-1) (Span.enter Span.off Span.Apps_cb)

let () =
  let per_workload f =
    List.map (fun (w : Common.workload) -> Alcotest.test_case w.Common.name `Quick (f w)) Harness.workloads
  in
  Alcotest.run "perfbench"
    [
      ("end-to-end metrics", per_workload test_end_to_end);
      ("per-layer metrics", per_workload test_traced);
      ( "check",
        [ Alcotest.test_case "perturbed reference makes fail_frac > 0" `Quick test_perturbed_reference ] );
      ( "spans",
        [
          Alcotest.test_case "self time on a synthetic nested set" `Quick test_self_time;
          Alcotest.test_case "recorded spans nest" `Quick test_recorded_nesting;
        ] );
    ]
