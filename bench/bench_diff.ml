(* bench_diff — CI regression gate over two BENCH_*.json files.

   Usage: bench_diff OLD.json NEW.json [threshold_pct] [--max-slowdown X]

   Fails (exit 1) when:
     - macro.events_per_sec in NEW is more than threshold_pct (default 15)
       below OLD's;
     - any scale point present in BOTH files (matched by scheduler and
       flow count) regressed its events_per_sec by more than
       threshold_pct;
     - within NEW alone, a scheduler's events/sec at the largest N
       present fell below 1/X of its N=64 figure, where X is the
       --max-slowdown threshold (default 2.0; CI passes 4.5, the
       cache-residency gap between N=64 and N=16384 — DESIGN.md §11);
     - within NEW alone, a measured overhead exceeds its own recorded
       budget: observability_overhead's profiler (≤ 5 %) and flight
       recorder (≤ 2 %), hardening_overhead's hardened cmproto receive
       path (≤ 5 %).

   Exits 2 on unreadable input, and when OLD carries a gated field that
   NEW lacks (macro.events_per_sec, scale.points, or a budget section's
   overhead/budget pair): a renamed or dropped key must fail loudly
   rather than switch its gate off.

   Both files are expected to come from the same machine (the committed
   baselines are produced together); this tool compares them, it does not
   normalise across hosts.  Files older than the scale section (e.g.
   BENCH_PR4.json) simply have no matching scale points, so only the
   macro gate applies to them. *)

open Cm_util

(* ---- accessors --------------------------------------------------------- *)

let member key = function Json.Obj kvs -> List.assoc_opt key kvs | _ -> None

let path json keys =
  List.fold_left (fun acc k -> match acc with Some j -> member k j | None -> None) (Some json) keys

(* Json.parse returns integral numbers (e.g. events/sec printed with
   %.0f) as Int: both shapes are numbers here *)
let number json keys =
  match path json keys with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let string_of_field json keys =
  match path json keys with Some (Json.Str s) -> Some s | _ -> None

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* scale points as (scheduler, flows, events_per_sec) *)
let scale_points json =
  match path json [ "scale"; "points" ] with
  | Some (Json.List pts) ->
      List.filter_map
        (fun pt ->
          match (string_of_field pt [ "scheduler" ], number pt [ "flows" ], number pt [ "events_per_sec" ]) with
          | Some sched, Some flows, Some eps -> Some (sched, int_of_float flows, eps)
          | _ -> None)
        pts
  | _ -> []

(* ---- the gates --------------------------------------------------------- *)

(* (label, section, overhead key, budget key) of every gated budget *)
let budgets =
  [
    ( "observability: profiler overhead",
      "observability_overhead", "prof_overhead_pct", "prof_budget_pct" );
    ( "observability: recorder overhead",
      "observability_overhead", "recorder_overhead_pct", "recorder_budget_pct" );
    ( "cmproto: feedback hardening overhead",
      "hardening_overhead", "overhead_pct", "budget_pct" );
  ]

let failures = ref 0

let check ~what ~old_v ~new_v ~threshold_pct =
  let drop_pct = (old_v -. new_v) /. old_v *. 100. in
  let bad = drop_pct > threshold_pct in
  Printf.printf "%-52s old %12.0f  new %12.0f  %+6.1f%%  %s\n" what old_v new_v (-.drop_pct)
    (if bad then "FAIL" else "ok");
  if bad then incr failures

let () =
  let usage () =
    prerr_endline "usage: bench_diff OLD.json NEW.json [threshold_pct] [--max-slowdown X]";
    exit 2
  in
  (* pull the --max-slowdown flag out of argv, then read positionals *)
  let max_slowdown = ref 2.0 in
  let positional = ref [] in
  let rec scan i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "--max-slowdown" ->
          if i + 1 >= Array.length Sys.argv then usage ();
          (match float_of_string_opt Sys.argv.(i + 1) with
          | Some f when f > 0. -> max_slowdown := f
          | _ -> usage ());
          scan (i + 2)
      | a ->
          positional := a :: !positional;
          scan (i + 1)
  in
  scan 1;
  let old_path, new_path, threshold_pct =
    match List.rev !positional with
    | [ o; n ] -> (o, n, 15.)
    | [ o; n; t ] -> (
        (o, n, match float_of_string_opt t with Some f -> f | None -> usage ()))
    | _ -> usage ()
  in
  let max_slowdown = !max_slowdown in
  let load p =
    match Json.parse (read_file p) with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "bench_diff: %s: %s\n" p e;
        exit 2
    | exception Sys_error e ->
        Printf.eprintf "bench_diff: %s\n" e;
        exit 2
  in
  let old_j = load old_path and new_j = load new_path in
  (* 0. every gated field OLD carries must still be in NEW *)
  let gated =
    [ "scale"; "points" ] :: List.concat_map (fun (_, s, p, b) -> [ [ s; p ]; [ s; b ] ]) budgets
  in
  let lost = List.filter (fun keys -> path old_j keys <> None && path new_j keys = None) gated in
  List.iter
    (fun keys ->
      Printf.eprintf "bench_diff: %s is in OLD but missing from NEW\n" (String.concat "." keys))
    lost;
  if lost <> [] then exit 2;
  Printf.printf "bench_diff: %s -> %s (threshold %.0f%%)\n\n" old_path new_path threshold_pct;
  (* 1. macro events/sec *)
  (match (number old_j [ "macro"; "events_per_sec" ], number new_j [ "macro"; "events_per_sec" ]) with
  | Some o, Some n -> check ~what:"macro events/sec (fig6 TCP/CM)" ~old_v:o ~new_v:n ~threshold_pct
  | _ ->
      Printf.eprintf "bench_diff: macro.events_per_sec missing\n";
      exit 2);
  (* 2. scale points present in both files *)
  let old_scale = scale_points old_j and new_scale = scale_points new_j in
  List.iter
    (fun (sched, flows, new_eps) ->
      match
        List.find_opt (fun (s, f, _) -> s = sched && f = flows) old_scale
      with
      | Some (_, _, old_eps) ->
          check
            ~what:(Printf.sprintf "scale events/sec (%s, N=%d)" sched flows)
            ~old_v:old_eps ~new_v:new_eps ~threshold_pct
      | None -> ())
    new_scale;
  if old_scale = [] && new_scale <> [] then
    print_endline "(old file has no scale section; scale compared within the new file only)";
  (* 3. within-NEW sub-linearity: events/sec at the largest N present
     must stay within max_slowdown of N=64 for each scheduler *)
  let scheds = List.sort_uniq compare (List.map (fun (s, _, _) -> s) new_scale) in
  List.iter
    (fun sched ->
      let eps n =
        List.find_map (fun (s, f, e) -> if s = sched && f = n then Some e else None) new_scale
      in
      let max_n =
        List.fold_left
          (fun acc (s, f, _) -> if s = sched && f > acc then f else acc)
          0 new_scale
      in
      match (eps 64, eps max_n) with
      | Some e64, Some e_max when max_n > 64 ->
          let ratio = e64 /. e_max in
          let bad = ratio > max_slowdown in
          Printf.printf "%-52s N=64 %10.0f  N=%d %10.0f  %5.2fx  %s\n"
            (Printf.sprintf "scale sub-linearity (%s)" sched)
            e64 max_n e_max ratio
            (if bad then Printf.sprintf "FAIL (>%.1fx slowdown)" max_slowdown else "ok");
          if bad then incr failures
      | _ -> ())
    scheds;
  (* 4. within-NEW overhead budgets: the measured overhead must stay
     within its own recorded budget *)
  List.iter
    (fun (what, section, pct_key, budget_key) ->
      match
        (number new_j [ section; pct_key ], number new_j [ section; budget_key ])
      with
      | Some pct, Some budget ->
          let bad = pct > budget in
          Printf.printf "%-52s measured %+6.2f%%  budget %4.1f%%  %s\n" what pct budget
            (if bad then "FAIL" else "ok");
          if bad then incr failures
      | _ -> ())
    budgets;
  print_newline ();
  if !failures > 0 then begin
    Printf.printf "bench_diff: %d regression(s) beyond the gate\n" !failures;
    exit 1
  end
  else print_endline "bench_diff: all gates passed"
