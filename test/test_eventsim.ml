(* Tests for the discrete-event engine and timers. *)

open Cm_util
open Eventsim

let ( => ) name cond = Alcotest.(check bool) name true cond

let test_runs_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at e (Time.ms 30) (fun () -> log := 3 :: !log));
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule_at e (Time.ms 20) (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e (Time.ms 10) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> seen := Engine.now e :: !seen));
  ignore (Engine.schedule_at e (Time.ms 25) (fun () -> seen := Engine.now e :: !seen));
  Engine.run e;
  Alcotest.(check (list int)) "now equals event times" [ Time.ms 10; Time.ms 25 ] (List.rev !seen)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> incr fired));
  ignore (Engine.schedule_at e (Time.ms 50) (fun () -> incr fired));
  Engine.run ~until:(Time.ms 20) e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int) "clock at limit" (Time.ms 20) (Engine.now e);
  Alcotest.(check int) "second pending" 1 (Engine.pending e)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e (Time.ms 10) (fun () -> fired := true) in
  "cancel returns true" => Engine.cancel e h;
  "double cancel returns false" => not (Engine.cancel e h);
  Engine.run e;
  "cancelled event did not fire" => not !fired

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> ()));
  Engine.run e;
  "scheduling in the past raises"
  => (try
        ignore (Engine.schedule_at e (Time.ms 5) (fun () -> ()));
        false
      with Invalid_argument _ -> true)

let test_events_schedule_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then begin
      incr count;
      ignore (Engine.schedule_after e (Time.ms 1) (fun () -> chain (n - 1)))
    end
  in
  ignore (Engine.schedule_after e 0 (fun () -> chain 10));
  Engine.run e;
  Alcotest.(check int) "chained events all ran" 10 !count;
  Alcotest.(check int) "clock advanced by chain" (Time.ms 10) (Engine.now e)

let test_step_and_counters () =
  let e = Engine.create () in
  ignore (Engine.schedule_after e (Time.ms 1) (fun () -> ()));
  ignore (Engine.schedule_after e (Time.ms 2) (fun () -> ()));
  "step executes one" => Engine.step e;
  Alcotest.(check int) "one pending left" 1 (Engine.pending e);
  "step executes the other" => Engine.step e;
  "step on empty returns false" => not (Engine.step e);
  Alcotest.(check int) "executed count" 2 (Engine.events_executed e)

(* [rearm] on a pending event moves it (it fires once, at the new time,
   after events already queued there); on a fired one it schedules again
   under the same handle. *)
let test_reschedule () =
  let e = Engine.create () in
  let fired_at = ref [] in
  let f () = fired_at := Engine.now e :: !fired_at in
  let h = Engine.schedule_at e (Time.ms 10) f in
  ignore (Engine.schedule_at e (Time.ms 30) (fun () -> fired_at := -1 :: !fired_at));
  Engine.rearm e h (Time.ms 30) f;
  ignore (Engine.schedule_at e (Time.ms 20) f);
  Alcotest.(check int) "moved, not duplicated" 3 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int))
    "re-armed event fired at its new time, after the one queued there first"
    [ Time.ms 20; -1; Time.ms 30 ]
    (List.rev !fired_at);
  Engine.rearm e h (Time.ms 40) f;
  "re-armed after firing: the same handle names the new event" => Engine.cancel e h;
  Engine.run e;
  Alcotest.(check int) "cancelled re-arm never fired" 3 (List.length !fired_at)

let test_reschedule_cancelled_returns_false () =
  let e = Engine.create () in
  let fired_at = ref [] in
  let f () = fired_at := Engine.now e :: !fired_at in
  let h = Engine.schedule_at e (Time.ms 10) f in
  ignore (Engine.cancel e h);
  Alcotest.(check int) "cancelled event not pending" 0 (Engine.pending e);
  Engine.rearm e h (Time.ms 20) f;
  Alcotest.(check int) "re-armed event pending once" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "fired once, at the re-armed time" [ Time.ms 20 ] !fired_at;
  "an idle handle cancels nothing" => not (Engine.cancel e (Engine.idle_handle ()))

let test_stale_handle_after_reuse () =
  (* event cells are pooled: after an event fires, the next schedule
     recycles its cell.  A handle to the fired event must not touch the
     new tenant: cancel returns false, and rearm binds a cell of its own. *)
  let e = Engine.create () in
  let fired = ref [] in
  let h1 = Engine.schedule_at e (Time.ms 10) (fun () -> fired := 1 :: !fired) in
  Engine.run e;
  let _h2 = Engine.schedule_at e (Time.ms 20) (fun () -> fired := 2 :: !fired) in
  "cancel of fired handle is inert" => not (Engine.cancel e h1);
  Engine.rearm e h1 (Time.ms 99) (fun () -> fired := 3 :: !fired);
  Engine.run e;
  Alcotest.(check (list int)) "reused cell unharmed, re-armed handle fired" [ 3; 2; 1 ] !fired

let test_clamped_counter () =
  let e = Engine.create () in
  Alcotest.(check int) "starts at zero" 0 (Engine.schedules_clamped e);
  ignore (Engine.schedule_after e (Time.ms (-5)) (fun () -> ()));
  ignore (Engine.schedule_after e (Time.ms (-1)) (fun () -> ()));
  ignore (Engine.schedule_after e (Time.ms 1) (fun () -> ()));
  Alcotest.(check int) "two negative delays clamped" 2 (Engine.schedules_clamped e);
  Engine.run e;
  Alcotest.(check int) "clamped events still run" 3 (Engine.events_executed e)

let test_lazy_cancel_pending () =
  let e = Engine.create () in
  let handles =
    List.init 10 (fun i -> Engine.schedule_at e (Time.ms (i + 1)) (fun () -> ()))
  in
  List.iteri (fun i h -> if i mod 2 = 0 then ignore (Engine.cancel e h)) handles;
  (* lazy cancellation leaves dead entries in the heap, but [pending] must
     report only live events *)
  Alcotest.(check int) "pending counts live events only" 5 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "only live events executed" 5 (Engine.events_executed e);
  Alcotest.(check int) "none pending after run" 0 (Engine.pending e)

let test_run_for () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e (Time.ms 100) (fun () -> incr fired));
  Engine.run_for e (Time.ms 50);
  Alcotest.(check int) "not yet" 0 !fired;
  Engine.run_for e (Time.ms 60);
  Alcotest.(check int) "fired in second window" 1 !fired

(* [run_for] leaves the clock past the wheel's cursor.  An event then
   scheduled at the new "now" sits in a wheel store (level 1, level 2 or
   overflow, by distance) while a later zero-delay post joins the lane;
   both carry the same time, so the scheduled one, stamped first, must
   run first — the lane may not win just because the cursor lags. *)
let test_lane_after_run_for () =
  List.iter
    (fun gap ->
      let e = Engine.create () in
      let log = ref [] in
      ignore (Engine.schedule_at e (Time.us 1) ignore);
      Engine.run_for e gap;
      ignore (Engine.schedule_at e (Engine.now e) (fun () -> log := 1 :: !log));
      Engine.post e 0 (fun () -> log := 2 :: !log);
      Engine.run e;
      Alcotest.(check (list int))
        (Format.asprintf "scheduled first, after a %a window" Time.pp gap)
        [ 1; 2 ] (List.rev !log))
    [ Time.us 20; Time.ms 5; Time.ms 100; Time.ms 2_000 ]

(* ---- Timer ---------------------------------------------------------- *)

let test_timer_fires_once () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Timer.create e ~callback:(fun () -> incr fired) in
  Timer.start t (Time.ms 5);
  "running" => Timer.is_running t;
  Engine.run e;
  Alcotest.(check int) "fired once" 1 !fired;
  "stopped after expiry" => not (Timer.is_running t)

let test_timer_restart_replaces () =
  let e = Engine.create () in
  let fired_at = ref [] in
  let t = Timer.create e ~callback:(fun () -> fired_at := Engine.now e :: !fired_at) in
  Timer.start t (Time.ms 5);
  Timer.start t (Time.ms 20);
  Engine.run e;
  Alcotest.(check (list int)) "only the re-armed expiry fired" [ Time.ms 20 ] !fired_at

let test_timer_stop () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Timer.create e ~callback:(fun () -> fired := true) in
  Timer.start t (Time.ms 5);
  Timer.stop t;
  Engine.run e;
  "stopped timer silent" => not !fired

let test_timer_periodic () =
  let e = Engine.create () in
  let count = ref 0 in
  let t = Timer.create e ~callback:(fun () -> incr count) in
  Timer.start_periodic t (Time.ms 10);
  Engine.run ~until:(Time.ms 55) e;
  Alcotest.(check int) "five ticks in 55ms" 5 !count;
  Timer.stop t;
  Engine.run ~until:(Time.ms 200) e;
  Alcotest.(check int) "no ticks after stop" 5 !count

let test_timer_callback_can_rearm () =
  let e = Engine.create () in
  let count = ref 0 in
  let t_ref = ref None in
  let t =
    Timer.create e ~callback:(fun () ->
        incr count;
        if !count < 3 then
          match !t_ref with Some t -> Timer.start t (Time.ms 1) | None -> ())
  in
  t_ref := Some t;
  Timer.start t (Time.ms 1);
  Engine.run e;
  Alcotest.(check int) "self-rearming chain" 3 !count

let test_timer_expiry_visible () =
  let e = Engine.create () in
  let t = Timer.create e ~callback:(fun () -> ()) in
  "no expiry when idle" => (Timer.expiry t = None);
  Timer.start t (Time.ms 7);
  Alcotest.(check (option int)) "expiry time" (Some (Time.ms 7)) (Timer.expiry t)

(* ---- profiler / escape hook / occupancy stats ------------------------- *)

let test_prof_counts_dispatches () =
  let e = Engine.create () in
  Engine.enable_prof e;
  "prof armed" => Engine.prof_enabled e;
  for i = 1 to 10 do
    ignore (Engine.schedule_at e (Time.ms i) (Engine.prof_tag e ~cat:"cm" (fun () -> ())))
  done;
  ignore (Engine.schedule_at e (Time.ms 20) (fun () -> ()));
  Engine.run e;
  match Engine.prof_report e with
  | None -> Alcotest.fail "no prof report"
  | Some r ->
      Alcotest.(check int) "total dispatches" 11 r.Engine.pr_dispatches;
      let count name =
        match List.find_opt (fun c -> c.Engine.pc_name = name) r.Engine.pr_categories with
        | Some c -> c.Engine.pc_dispatches
        | None -> 0
      in
      Alcotest.(check int) "cm-tagged" 10 (count "cm");
      Alcotest.(check int) "untagged fall in other" 1 (count "other");
      (* per-category counts always sum to the total: exact, not sampled *)
      let sum =
        List.fold_left (fun acc c -> acc + c.Engine.pc_dispatches) 0 r.Engine.pr_categories
      in
      Alcotest.(check int) "categories sum to total" r.Engine.pr_dispatches sum

(* Minor allocation between two minor collections must show up: the
   young-heap words not yet collected count too.  Each event allocates
   1,000 words as ten 100-word arrays (a single 1,000-word array would
   skip the minor heap); ten events stay far below one minor heap, so no
   collection runs during the measured window. *)
let test_prof_minor_words_without_collection () =
  Gc.minor ();
  let e = Engine.create () in
  Engine.enable_prof e;
  let sink = ref [||] in
  for i = 1 to 10 do
    ignore
      (Engine.schedule_at e (Time.ms i) (fun () ->
           for _ = 1 to 10 do
             sink := Sys.opaque_identity (Array.make 99 i)
           done))
  done;
  Engine.run e;
  match Engine.prof_report e with
  | None -> Alcotest.fail "no prof report"
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "minor words >= 10000 (got %.0f)" r.Engine.pr_minor_words)
        true
        (r.Engine.pr_minor_words >= 10_000.)

let test_prof_tag_identity_when_off () =
  let e = Engine.create () in
  let f () = () in
  "prof_tag is physically the identity on an unprofiled engine"
  => (Engine.prof_tag e ~cat:"cm" f == f)

let test_escape_hook_fires_and_reraises () =
  let e = Engine.create () in
  let seen = ref None in
  Engine.set_escape_hook e (Some (fun exn -> seen := Some (Printexc.to_string exn)));
  ignore (Engine.schedule_at e (Time.ms 1) (fun () -> failwith "boom"));
  (try
     Engine.run e;
     Alcotest.fail "exception swallowed"
   with Failure m -> Alcotest.(check string) "reraised" "boom" m);
  (match !seen with
  | Some s -> "hook saw the exception" => (s <> "")
  | None -> Alcotest.fail "escape hook never fired")

let test_pool_and_queue_stats () =
  let e = Engine.create () in
  for i = 1 to 50 do
    ignore (Engine.schedule_at e (Time.ms i) (fun () -> ()))
  done;
  let st = Engine.queue_stats e in
  Alcotest.(check int) "live size" 50 st.Wheel.size_now;
  "high-water tracks the burst" => (st.Wheel.hw_size >= 50);
  Engine.run e;
  let st = Engine.queue_stats e in
  Alcotest.(check int) "drained" 0 st.Wheel.size_now;
  "pool high-water recorded" => (Engine.pool_hw e > 0)

(* ---- stress ----------------------------------------------------------- *)

let test_engine_million_events () =
  let e = Engine.create () in
  let rng = Cm_util.Rng.create ~seed:1 in
  let count = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 1_000_000 do
    ignore
      (Engine.schedule_at e (Cm_util.Rng.int rng 1_000_000_000) (fun () -> incr count))
  done;
  Engine.run e;
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "all ran" 1_000_000 !count;
  Alcotest.(check int) "executed counter" 1_000_000 (Engine.events_executed e);
  "a million events under 10s wall" => (wall < 10.)

let prop_engine_order =
  QCheck.Test.make ~name:"engine executes any schedule in sorted order" ~count:100
    QCheck.(list (int_bound 1000))
    (fun delays ->
      let e = Engine.create () in
      let out = ref [] in
      List.iter
        (fun d -> ignore (Engine.schedule_at e (Time.us d) (fun () -> out := d :: !out)))
        delays;
      Engine.run e;
      List.rev !out = List.stable_sort Stdlib.compare delays)

(* The wheel backend must be observationally identical to the heap
   backend: drive both engines through the same randomized program and
   require identical execution sequences, cancel results, pending counts
   and clocks.  Offsets reach from the current slot to past the level-2
   horizon (~1.07 s), so entries land in every store — current-slot heap,
   level-1 slots, level-2 buckets, overflow — and cascade or migrate on
   cursor advance.  The program also posts at delay 0 (the wheel engine's
   FIFO lane) and above, re-arms handles, drives timers through start,
   stop and periodic re-arm, and runs bounded windows (cell reuse from
   the pool, clocks moved past the cursor).  Some events, when they run,
   post at delay 0 and schedule at delay 0, so lane entries race queued
   entries at the same instant. *)
let prop_wheel_matches_heap =
  let offset t k =
    match k mod 4 with
    | 0 -> Time.us t (* within a few level-1 slots *)
    | 1 -> Time.us (t * 20) (* up to 60 ms: level 1 and 2 *)
    | 2 -> Time.us (t * 400) (* up to 1.2 s: level 2 and overflow *)
    | _ -> Time.ms t (* up to 3 s: mostly overflow *)
  in
  QCheck.Test.make ~name:"wheel engine pop sequence = heap engine pop sequence" ~count:200
    QCheck.(list (triple (int_bound 10) (int_bound 3_000) small_nat))
    (fun ops ->
      let ew = Engine.create ~wheel:true () in
      let eh = Engine.create ~wheel:false () in
      let logw = ref [] and logh = ref [] in
      let ev e log i () =
        log := i :: !log;
        if i mod 3 = 0 then begin
          Engine.post e 0 (fun () -> log := (-i - 1) :: !log);
          ignore (Engine.schedule_after e 0 (fun () -> log := (-i - 1_000_000) :: !log))
        end
      in
      let hs = ref [] in
      let nth k = match !hs with [] -> None | l -> List.nth_opt l (k mod List.length l) in
      let timers =
        Array.init 4 (fun j ->
            ( Timer.create ew ~callback:(ev ew logw (2_000_000 + j)),
              Timer.create eh ~callback:(ev eh logh (2_000_000 + j)) ))
      in
      let id = ref 0 in
      let fresh () =
        let i = !id in
        incr id;
        i
      in
      let same what a b = if a <> b then failwith (what ^ " mismatch") in
      List.iter
        (fun (op, t, k) ->
          let d = offset t k in
          (match op with
          | 0 | 1 ->
              let i = fresh () in
              let when_ = Time.add (Engine.now ew) d in
              let hw = Engine.schedule_at ew when_ (ev ew logw i) in
              let hh = Engine.schedule_at eh when_ (ev eh logh i) in
              hs := (hw, hh) :: !hs
          | 2 ->
              let i = fresh () in
              Engine.post ew 0 (ev ew logw i);
              Engine.post eh 0 (ev eh logh i)
          | 3 ->
              let i = fresh () in
              Engine.post ew d (ev ew logw i);
              Engine.post eh d (ev eh logh i)
          | 4 -> (
              match nth k with
              | Some (hw, hh) -> same "cancel result" (Engine.cancel ew hw) (Engine.cancel eh hh)
              | None -> ())
          | 5 -> (
              match nth k with
              | Some (hw, hh) ->
                  let i = fresh () in
                  let when_ = Time.add (Engine.now ew) d in
                  Engine.rearm ew hw when_ (ev ew logw i);
                  Engine.rearm eh hh when_ (ev eh logh i)
              | None -> ())
          | 6 ->
              let tw, th = timers.(k mod 4) in
              Timer.start tw d;
              Timer.start th d
          | 7 ->
              let tw, th = timers.(k mod 4) in
              Timer.stop tw;
              Timer.stop th
          | 8 ->
              let tw, th = timers.(k mod 4) in
              let p = Stdlib.max (Time.ms 2) d in
              Timer.start_periodic tw p;
              Timer.start_periodic th p
          | _ ->
              Engine.run_for ew d;
              Engine.run_for eh d);
          same "clock" (Engine.now ew) (Engine.now eh);
          same "pending" (Engine.pending ew) (Engine.pending eh))
        ops;
      (* periodic timers never drain: run a long window, then stop them *)
      Engine.run_for ew (Time.ms 4_000);
      Engine.run_for eh (Time.ms 4_000);
      Array.iter
        (fun (tw, th) ->
          Timer.stop tw;
          Timer.stop th)
        timers;
      Engine.run ew;
      Engine.run eh;
      List.rev !logw = List.rev !logh
      && Engine.now ew = Engine.now eh
      && Engine.events_executed ew = Engine.events_executed eh)

(* Exact allocation gate: after warm-up, a maintenance-style periodic tick
   and RTO-style timer restarts (moved in place while pending), a
   delayed-ACK-style timer re-armed after it fires (a pooled cell under
   the same handle), and zero-delay posts of a prebuilt closure (the
   lane) allocate nothing per operation.  Wheel slot vectors are sized on
   first use, so warm-up runs until the ticks have visited every level-1
   slot (their slot advances by a fraction of a revolution each time). *)
let test_timer_paths_allocate_nothing () =
  let e = Engine.create () in
  let steps n =
    for _ = 1 to n do
      ignore (Engine.step e)
    done
  in
  let words_of n =
    let w0 = Gc.minor_words () in
    steps n;
    Gc.minor_words () -. w0
  in
  let tick = Timer.create e ~callback:ignore in
  Timer.start_periodic tick (Time.ms 100);
  steps 70_000;
  Alcotest.(check (float 0.)) "10k periodic 100 ms ticks: 0 minor words" 0. (words_of 10_000);
  Timer.stop tick;
  let rto = Timer.create e ~callback:ignore in
  let delack = ref None in
  let noop () = () in
  let ack =
    Timer.create e ~callback:(fun () ->
        Timer.start rto (Time.ms 200);
        Engine.post e 0 noop)
  in
  let d =
    Timer.create e ~callback:(fun () ->
        match !delack with Some d -> Timer.start d (Time.ms 200) | None -> ())
  in
  delack := Some d;
  Timer.start d (Time.ms 200);
  Timer.start_periodic ack (Time.ms 1);
  steps 140_000;
  (* one step runs an ack tick, the next its posted no-op: 10k restarts *)
  Alcotest.(check (float 0.)) "10k RTO restarts: 0 minor words" 0. (words_of 20_000);
  "the restarted RTO never expired" => (Timer.is_running rto)

let test_pool_shrinks_after_burst () =
  let e = Engine.create () in
  (* burst: 10k simultaneously-outstanding events *)
  for i = 1 to 10_000 do
    ignore (Engine.schedule_at e (Time.us i) ignore)
  done;
  Engine.run e;
  Alcotest.(check int) "burst executed" 10_000 (Engine.events_executed e);
  (* draining the burst must not retain its peak: the free list is capped
     at max 64 (queued events), and the queue is now empty *)
  "pool shrank to the floor after the burst" => (Engine.pool_size e <= 64);
  (* cells still recycle in steady state *)
  ignore (Engine.schedule_after e (Time.us 1) ignore);
  Engine.run e;
  "pool still bounded in steady state" => (Engine.pool_size e <= 64)

let () =
  Alcotest.run "eventsim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_runs_in_time_order;
          Alcotest.test_case "fifo ties" `Quick test_fifo_at_same_time;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "events schedule events" `Quick test_events_schedule_events;
          Alcotest.test_case "step and counters" `Quick test_step_and_counters;
          Alcotest.test_case "reschedule" `Quick test_reschedule;
          Alcotest.test_case "reschedule cancelled" `Quick test_reschedule_cancelled_returns_false;
          Alcotest.test_case "stale handle after cell reuse" `Quick
            test_stale_handle_after_reuse;
          Alcotest.test_case "clamped counter" `Quick test_clamped_counter;
          Alcotest.test_case "lazy cancel pending" `Quick test_lazy_cancel_pending;
          Alcotest.test_case "run_for windows" `Quick test_run_for;
          Alcotest.test_case "lane after run_for" `Quick test_lane_after_run_for;
          QCheck_alcotest.to_alcotest prop_engine_order;
          QCheck_alcotest.to_alcotest prop_wheel_matches_heap;
          Alcotest.test_case "pool shrinks after burst" `Quick test_pool_shrinks_after_burst;
          Alcotest.test_case "timer re-arm and lane paths allocate nothing" `Quick
            test_timer_paths_allocate_nothing;
        ] );
      ( "timer",
        [
          Alcotest.test_case "fires once" `Quick test_timer_fires_once;
          Alcotest.test_case "restart replaces" `Quick test_timer_restart_replaces;
          Alcotest.test_case "stop" `Quick test_timer_stop;
          Alcotest.test_case "periodic" `Quick test_timer_periodic;
          Alcotest.test_case "callback can re-arm" `Quick test_timer_callback_can_rearm;
          Alcotest.test_case "expiry visible" `Quick test_timer_expiry_visible;
        ] );
      ( "prof",
        [
          Alcotest.test_case "exact per-category dispatch counts" `Quick
            test_prof_counts_dispatches;
          Alcotest.test_case "prof_tag identity when off" `Quick test_prof_tag_identity_when_off;
          Alcotest.test_case "escape hook fires and reraises" `Quick
            test_escape_hook_fires_and_reraises;
          Alcotest.test_case "pool and wheel occupancy stats" `Quick test_pool_and_queue_stats;
        ] );
      ( "prof_gc",
        [
          Alcotest.test_case "minor words without a minor collection" `Quick
            test_prof_minor_words_without_collection;
        ] );
      ( "stress",
        [ Alcotest.test_case "a million events" `Slow test_engine_million_events ]);
    ]
